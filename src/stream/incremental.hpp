#pragma once

// IncrementalMinCut — exact min-cut over an edge-update stream, warm-started
// from the previous tree packing instead of re-solving from scratch.
//
// Why this is sound on top of the paper's structure: the pipeline's only
// probabilistic step is the tree packing — once a packing is in hand, "min
// over trees of the deterministic 2-respecting minimum" is exact w.r.t. that
// packing, and the packing remains a valid certificate as long as its trees
// survive the updates (Ghaffari–Zuzic PODC 2022; a cut near λ 2-respects
// some tree whp). So each batch is absorbed in three escalating tiers:
//
//   kWarmCache        the delta-aware PackingCache holds this exact
//                     (base fingerprint, delta fingerprint, config, rng)
//                     lineage: trees AND per-tree minima replay with rng
//                     fast-forward; one 2-respecting re-solve of the winner
//                     re-derives its witness for certification.
//   kWarmIncremental  the resident packing is repaired in place — only the
//                     Borůvka iterations whose selected edges were deleted
//                     re-run (BoruvkaPacker + ScratchLease arenas, loads
//                     rebuilt from the surviving trees) — then per-tree
//                     2-respecting minima are refreshed with BRANCH AND
//                     BOUND against TRACKED ARGMIN CUTS: every solved tree
//                     remembers its argmin bipartition, whose exact current
//                     value is re-priced in O(1) per update (a cut moves by
//                     Δw exactly when the edge crosses it), and its
//                     runner-up value from the cut oracle
//                     (mincut/cut_oracle.hpp — the host-speed twin of
//                     two_respecting_mincut). A tree is re-evaluated only
//                     when min(tracked, runner_up − decrease mass since its
//                     eval) could beat the best tracked candidate; skipped
//                     trees still compete through their tracked values, so
//                     the answer is the true min over trees. The solve set
//                     is decided in one width-independent pass and ledgers
//                     merge in tree-index order.
//   kFullSolve        one fault::SolveSupervisor solve: its exact tier is
//                     the full pipelined re-pack, certified by the guard
//                     battery. A first-try exact answer hands back its
//                     per-tree trees and values, which become the new warm
//                     state (the journal re-bases and the cache is
//                     primed); any other answer — reseeded, replayed or
//                     degraded — is served from the ladder and drops the
//                     warm state.
//
// The cheap change-detection tier (Nanongkai–Su style) decides when warm
// answers stop being trustworthy: two exact counters accumulate the
// decrease and increase weight mass touched since the last full pack, and
// once their sum exceeds `rebuild_mass_fraction · λ` — or deletions broke
// (cumulatively, repairs included) more than half of the pack-time trees —
// the solve goes full. The decrease mass also drives the
// per-tree skip bound (stale value − decrease mass since that tree's solve),
// which is why both counters are exact, never sketched.
// Every warm answer is still validated before it is served: the coverage
// margin U + D < 1.5·λ_pack must hold (U = the surviving previous witness
// cut re-priced at current weights, D = decrease mass since the pack; the
// pack-time packing 2-respects every cut under the 1.5·λ coverage radius,
// so within the margin the current min cut is still structurally covered
// and min-over-trees is the global minimum), the winning tree must be
// spanning (RootedTree construction), its witness must re-sum to the value
// (cut = cov), and the value must not exceed U (an exact upper bound on
// the new λ). Any violation falls back to the full tier.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/tree_packing.hpp"
#include "minoragg/ledger.hpp"
#include "stream/update_stream.hpp"
#include "util/rng.hpp"

namespace umc::stream {

struct StreamConfig {
  /// Seed of the packing lineage (full pack e draws from
  /// Rng(mix64(seed ^ e)); warm tiers consume no randomness).
  std::uint64_t seed = 1;
  /// Thread width of the solve sessions (packing folds, tree solves, and
  /// warm re-solve rounds); results are bit-identical at any width.
  int num_threads = 1;
  /// Packing knobs; `packing.cache` may point at a session-private cache
  /// (the delta-aware keyspace lives in whichever cache this resolves to).
  mincut::PackingConfig packing;
  /// Full re-solve once accumulated |Δw| mass since the last full pack
  /// exceeds this fraction of the packed λ (<= 0: re-solve every batch —
  /// the from-scratch drill). A cheap pre-trigger only: the authoritative
  /// exactness certificate is the coverage-margin check inside warm_solve
  /// (U + D < 1.5·λ_pack), which refuses warm answers regardless of this
  /// knob.
  double rebuild_mass_fraction = 2.0;
  /// Certify full-tier answers with the supervisor's guard battery
  /// (SupervisorConfig::verify; warm tiers are always witness-validated
  /// regardless).
  bool verify_full = true;
  /// Drill knob: corrupt the warm candidate value before validation — the
  /// witness re-sum must catch it and force the full fallback.
  bool inject_warm_corruption = false;
};

enum class StreamTier {
  kWarmCache = 0,        // delta-cache replay (one witness re-solve)
  kWarmIncremental = 1,  // in-place repair + bounded re-solve
  kFullSolve = 2,        // re-pack + full pipelined solve
};

[[nodiscard]] const char* to_string(StreamTier t);

/// Lifetime counters of one lineage (also exported as umc_stream_*).
struct StreamCounters {
  std::int64_t batches = 0;
  std::int64_t updates = 0;
  std::int64_t reweights = 0;
  std::int64_t inserts = 0;
  std::int64_t deletes = 0;
  std::int64_t solves = 0;
  std::int64_t warm_hits = 0;    // solves answered by a warm tier
  std::int64_t warm_misses = 0;  // solves that went full (cold included)
  std::int64_t delta_cache_hits = 0;
  std::int64_t fallbacks = 0;  // warm attempts invalidated mid-flight
  std::int64_t full_solves = 0;
  std::int64_t trees_repaired = 0;
  std::int64_t trees_resolved = 0;
  std::int64_t trees_skipped = 0;  // bound-pruned 2-respecting solves
};

struct StreamSolveReport {
  StreamTier tier = StreamTier::kFullSolve;
  Weight value = 0;
  /// Warm tiers: witness re-sum + surviving-witness bound. Full tier: the
  /// guard battery (when verify_full). Never served unvalidated.
  bool certified = false;
  std::string reason;  // why this tier answered ("" = warm, no event)
  int trees = 0;
  int trees_repaired = 0;
  int trees_resolved = 0;
  int trees_skipped = 0;
  int retries = 0;  // the full tier's supervisor retries (0 on warm tiers)
  minoragg::Ledger ledger;  // this solve's charges
  /// Winner in CURRENT materialized-graph ids (see graph()); e == kNoEdge
  /// on the n == 2 path and on full-tier answers from a degraded
  /// supervisor tier (Karger–Stein, gather baseline).
  mincut::ExactMinCutResult exact;
};

class IncrementalMinCut {
 public:
  /// Adopts `base` (connected, n >= 2) as the resident graph. Nothing is
  /// packed until the first solve().
  IncrementalMinCut(const WeightedGraph& base, StreamConfig cfg = {});

  /// Journals + applies one batch (see StreamGraph::apply for rejection
  /// rules; on error nothing changes, including the mass counters).
  [[nodiscard]] Expected<BatchDelta> apply(const UpdateBatch& batch);

  /// Solves the resident graph at its current state, choosing the cheapest
  /// trustworthy tier. Deterministic given (base graph, update history,
  /// config) — thread width included.
  [[nodiscard]] StreamSolveReport solve();

  /// The resident materialized graph the report's edge ids refer to.
  [[nodiscard]] const WeightedGraph& graph() const { return sg_.current(); }
  [[nodiscard]] const StreamGraph& stream_graph() const { return sg_; }
  [[nodiscard]] const StreamCounters& counters() const { return counters_; }
  [[nodiscard]] const StreamConfig& config() const { return cfg_; }

 private:
  struct WarmOutcome {
    bool ok = false;
    std::string why;  // invalidation reason when !ok
  };

  /// One resident packing tree (slot-id space). The defaults are the
  /// unsolved state: no value, no tracked argmin cut.
  struct TreeState {
    std::vector<EdgeId> edges;           // sorted slot ids
    Weight value = mincut::kInfWeight;   // last solved 2-respecting min
    Weight dec_at = 0;                   // decrease_mass_ at that solve
    bool broken = false;                 // contains a tombstoned slot
    // Tracked argmin state from the tree's last oracle eval (empty side =
    // none yet: cache-adopted or repaired trees re-earn theirs on the next
    // warm solve). `tracked` is the EXACT current value of that
    // bipartition, re-priced per applied op in apply(); the defining pair
    // is stored as slot ids so it survives re-materialization.
    Weight runner = mincut::kInfWeight;   // runner-up candidate at eval time
    Weight tracked = mincut::kInfWeight;  // current value of the argmin cut
    std::vector<bool> side;               // argmin bipartition bitmap
    EdgeId cut_e = kNoEdge;               // defining pair (f may be kNoEdge)
    EdgeId cut_f = kNoEdge;
  };

  /// Appends its charges to rep.ledger (the invalidated warm attempt's
  /// charges stay — honest accounting across the fallback).
  void full_solve(StreamSolveReport& rep, const std::string& reason);
  bool adopt_from_cache(StreamSolveReport& rep);
  WarmOutcome warm_solve(StreamSolveReport& rep);
  void repair_broken_trees(StreamSolveReport& rep, minoragg::Ledger& ledger);
  void adopt_winner(const WeightedGraph& g, int winner, Weight value);
  void record_eval(TreeState& t, mincut::TwoRespectEval ev) const;
  /// Materialized edge ids of a slot-id tree.
  [[nodiscard]] std::vector<EdgeId> current_edges(std::span<const EdgeId> slots) const;
  void store_delta_entry();
  [[nodiscard]] std::uint64_t full_seed() const;
  [[nodiscard]] Weight surviving_witness_bound(const WeightedGraph& g) const;

  StreamGraph sg_;
  StreamConfig cfg_;
  StreamCounters counters_;
  // Σ max(0, w_old − w_new) and Σ max(0, w_new − w_old) over every applied
  // op since the last full pack.
  Weight decrease_mass_ = 0;
  Weight increase_mass_ = 0;

  // Resident packing state (slot-id space; empty until the first full pack).
  bool packed_ = false;
  std::uint64_t pack_epoch_ = 0;  // full packs completed (seed derivation)
  Rng::State base_rng_state_{};   // rng entry state of the base pack
  std::vector<TreeState> trees_;
  /// Trees re-grown since the base pack. Repaired trees are NOT pack-time
  /// trees, so they carry no coverage guarantee; once the cumulative count
  /// (plus currently-broken trees) passes half the pack-time trees the next
  /// solve re-packs instead of warm-starting.
  std::int64_t repaired_since_pack_ = 0;
  Weight lambda_pack_ = 0;       // min-cut value at the base pack
  std::vector<bool> last_side_;  // previous winning bipartition (node bitmap)
};

}  // namespace umc::stream
