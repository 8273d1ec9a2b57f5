#pragma once

// Exact weighted min-cut (Theorem 1): tree packing (Theorem 12) x the
// deterministic 2-respecting min-cut (Theorem 40). A poly(log n)-round
// Minor-Aggregation algorithm, compiled to CONGEST via Theorem 17:
// Õ(D+√n) rounds on general graphs (recovering Dory et al. [7]) and Õ(D)
// on excluded-minor graphs — universally optimal modulo shortcut
// construction.

#include <cstdint>
#include <string>
#include <vector>

#include "mincut/instance.hpp"
#include "mincut/solve_checkpoint.hpp"
#include "mincut/tree_packing.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"

namespace umc::mincut {

struct ExactMinCutResult {
  Weight value = kInfWeight;
  /// Defining tree edge(s) of the winning 2-respecting cut, as edge ids of
  /// the input graph (f == kNoEdge for a 1-respecting winner).
  EdgeId e = kNoEdge;
  EdgeId f = kNoEdge;
  /// Index of the packing tree the winner 2-respects.
  int winning_tree = -1;
  int num_trees = 0;
};

/// Requires a connected graph with n >= 2. Randomness is used only by the
/// tree packing; the 2-respecting solver is deterministic.
///
/// The per-tree 2-respecting solves run as parallel jobs on the shared
/// util::ThreadPool (width = the UMC_THREADS knob), each into its own
/// Ledger; results and ledgers are merged in tree-index order, so the cut
/// value, winning tree, and every charged round count are bit-identical at
/// any thread width.
[[nodiscard]] ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng,
                                             minoragg::Ledger& ledger,
                                             const PackingConfig& config = {});

/// Per-tree outputs of one solve, index-aligned in packing order.
struct PerTreeCuts {
  std::vector<std::vector<EdgeId>> trees;  // packing trees, input-graph edge ids
  std::vector<CutResult> cuts;             // each tree's 2-respecting minimum
};

/// Same, with an explicit thread width for the per-tree solves instead of
/// the UMC_THREADS knob (which is read once per process — this overload is
/// what width-sweep tests and benches use).
///
/// Checkpointing: with a `journal`, every committed unit — the packing
/// setup, each packing iteration, each tree's 2-respecting result — is
/// recorded into it, so a crash_error thrown by `hook` (or escaping the
/// producer) loses only in-flight work. Re-entering with the same (graph,
/// config, seed) and the surviving journal replays it and recomputes the
/// rest; the final result, `ledger` charges, and `rng` exit state are
/// bit-identical to an unjournaled run no matter where (or whether) crashes
/// struck. A crash propagates out of this function after every already-
/// spawned tree solve finished committing — the pipelined units are not
/// thrown away with the exception. Without a journal the hook never fires.
///
/// `per_tree`, when set, receives the packing trees and their cuts.
[[nodiscard]] ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng,
                                             minoragg::Ledger& ledger,
                                             const PackingConfig& config, int num_threads,
                                             SolveCheckpoint* journal = nullptr,
                                             const CrashHook& hook = nullptr,
                                             PerTreeCuts* per_tree = nullptr);

// ---------------------------------------------------------------------------
// Certification: the guard battery behind fault::SolveSupervisor's exact
// tier (fault/supervisor.hpp), which owns the degradation ladder.
//
// A production deployment cannot trust an answer blindly (bit-flipped
// memory, a miscompiled kernel, a bug tripped by a rare topology). The
// guards are independent spot checks:
//   * cut=cov spot check — materialize the winning (e, f) cut as a witness
//     bipartition and re-sum the crossing weights (Theorem 40's Cut/Cov
//     identity), which must reproduce the reported value;
//   * packing respect check — the winning tree index is in range and its
//     edge set is a spanning tree of g (RootedTree validation);
//   * determinism self-check — re-running the deterministic 2-respecting
//     solver on the winning tree reproduces the value, and the replayed
//     packing (same seed) yields the same tree count.

struct GuardConfig {
  PackingConfig packing;
};

/// The guard battery as a standalone oracle: validates `primary` against a
/// same-seed packing replay (PackingCache hit in the common case), the
/// witness re-sum, and the deterministic 2-respecting re-run. Returns one
/// structured line per failed guard — empty means certified. This is the
/// cross-tier verifier the SolveSupervisor and the differential fault sweep
/// use to certify whichever tier produced an exact answer.
[[nodiscard]] std::vector<std::string> verify_mincut_result(const WeightedGraph& g,
                                                            std::uint64_t seed,
                                                            const GuardConfig& config,
                                                            const ExactMinCutResult& primary);

}  // namespace umc::mincut
