#pragma once

// Tree packing (Section 3.4, Theorem 12).
//
// Produces O(log^2 n) spanning trees such that, with high probability,
// every cut of value <= 1.05*lambda 2-respects at least one tree:
//   * if lambda is already O(log n): greedy MST packing (Thorup) — re-run
//     Borůvka I = 2*lambda*log(m) times under "packing load" costs;
//   * otherwise: Karger-sample edges with p = 2*log2(n)/lambda first (case B
//     of the Theorem 12 proof sketch, with its constant C fixed at 2), then
//     greedy-pack the sample.
//
// Substitution (documented in DESIGN.md): the (1+eps)-approximation of
// lambda used to set the sampling rate is cited prior work [17] in the
// paper; this implementation seeds it with the exact Stoer-Wagner value and
// charges a polylog placeholder round cost for it.
//
// One producer: every greedy iteration runs the chunk-parallel
// BoruvkaPacker (tree/spanning.hpp) and re-costs only the edges the new
// tree loaded. It selects the same (cost, edge id)-minimal tree as the
// Minor-Aggregation Borůvka (`minoragg::boruvka_mst`) and is charged from
// its phase count (`charge_packing_iteration`). The simulated Borůvka stays
// the reference that tests/test_tree_packing_parallel.cpp and
// BM_TreePackingSeed re-derive every tree with.

#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "mincut/solve_checkpoint.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"

namespace umc::mincut {

class PackingCache;

struct PackingConfig {
  /// Direct greedy packing below this multiple of log2(n).
  double direct_threshold_c = 4.0;
  /// Hard cap on the number of trees (0 = the theorem's I); useful for
  /// quick experiments that trade the whp guarantee for speed.
  int max_trees = 0;
  /// Consult/populate the global PackingCache, keyed by (graph fingerprint,
  /// rng state, config): a hit replays the recorded trees, charges, and rng
  /// fast-forward instead of recomputing — how verify_mincut_result's
  /// same-seed replay avoids paying for the packing twice. (Warm stream
  /// sessions keep their own delta-aware entries in the same cache; see
  /// src/stream.)
  bool use_cache = true;
  /// Minimum live edges per Borůvka fold chunk. Pure wall-time granularity:
  /// chunking cannot change any output (per-component minima under a strict
  /// total order merge identically under any split), so this field is
  /// deliberately EXCLUDED from the PackingCache fingerprint. Tests lower it
  /// to force multi-chunk folds on small graphs; the default keeps tiny
  /// folds inline.
  int chunk_min_edges = 2048;
  /// The PackingCache consulted when `use_cache` is on: nullptr (the
  /// default) means the process-wide PackingCache::global(). A multi-tenant
  /// server points this at the tenant Session's private cache so one
  /// tenant's packings can neither evict nor be observed by another's
  /// (src/server). Like chunk_min_edges, the pointer is EXCLUDED from the
  /// cache fingerprint: it selects WHERE entries live, not what they
  /// contain.
  PackingCache* cache = nullptr;
};

/// The greedy packing's edge cost: load / multiplicity in 2^20 fixed point,
/// so Borůvka keys on integers (ties broken by edge id inside Borůvka).
[[nodiscard]] inline std::int64_t packing_cost(std::int64_t load, Weight multiplicity) {
  return (load << 20) / multiplicity;
}

/// The charge of one greedy packing iteration whose Borůvka MST took
/// `phases` supernode-selection phases: one Definition 9 round per phase,
/// one termination-check round that observes the single supernode, and one
/// "boruvka_iterations" bump per phase — what `minoragg::boruvka_mst`
/// charges for the same tree. Live iterations, journal replay and the
/// stream's tree repair all charge through this one rule.
inline void charge_packing_iteration(minoragg::Ledger& ledger, int phases) {
  ledger.charge(phases + 1);
  ledger.bump(minoragg::CounterId::boruvka_iterations, phases);
}

struct TreePacking {
  std::vector<std::vector<EdgeId>> trees;  // edge ids of the input graph
  Weight lambda_seed = 0;                  // min-cut estimate used
  bool sampled = false;                    // took the Karger-sampling route
};

/// Requires a connected graph with n >= 2.
[[nodiscard]] TreePacking tree_packing(const WeightedGraph& g, Rng& rng,
                                       minoragg::Ledger& ledger,
                                       const PackingConfig& config = {});

/// The PackingCache `config_fp` for `config`: folds exactly the fields the
/// producer branches on (chunk_min_edges and the cache pointer are excluded
/// — see their field comments). Exported so the delta-aware keyspace
/// (src/stream) builds keys the plain producer agrees with.
[[nodiscard]] std::uint64_t packing_config_fingerprint(const PackingConfig& config);

/// Receives each packed tree (edge ids of the input graph) as soon as its
/// Borůvka iteration finishes, in packing order.
using TreeSink = std::function<void(std::vector<EdgeId>)>;

/// Streaming variant for the pipelined solve: instead of retaining trees in
/// the result (`trees` stays empty), each tree is handed to `sink` the
/// moment it is packed, so consumers can start solving tree i while
/// iteration i+1 still runs. Identical randomness, identical trees in the
/// same order, and identical ledger charges as the retaining overload — the
/// sink is purely an output channel. The sink is invoked on the calling
/// thread; `rng` is touched only between sink calls, and `ledger` absorbs
/// the packing's (all-additive) charges once after the final sink call.
///
/// Checkpointing: with a `journal`, every committed unit (setup, then each
/// greedy iteration) is recorded into it; when it already holds work for
/// this exact (graph, config, entry rng state) — asserted — the committed
/// prefix is REPLAYED through the sink and packing continues live from the
/// first uncommitted iteration. Trees, emit order, ledger charges, and the
/// generator exit state are bit-identical to an unjournaled call regardless
/// of how many crash/resume cycles happened. `hook` fires before each commit
/// (kPackingSetup once, kPackingIteration per iteration) and may throw
/// crash_error; the caller must then reset the rng to the entry state before
/// resuming (setup consumes randomness). Without a journal the hook never
/// fires. The PackingCache is consulted only when there is no journal or it
/// is empty — a hit is a full replay, the cheapest resume of all — and
/// populated on completion.
[[nodiscard]] TreePacking tree_packing(const WeightedGraph& g, Rng& rng,
                                       minoragg::Ledger& ledger, const PackingConfig& config,
                                       const TreeSink& sink, PackingCheckpoint* journal = nullptr,
                                       const CrashHook& hook = nullptr);

}  // namespace umc::mincut
