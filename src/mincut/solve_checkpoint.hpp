#pragma once

// Pipeline checkpointing for the resilient solve path (PR 3's
// checkpoint/rollback idea, extended past compiled Borůvka into the
// tree-packing producer and the 2-respecting phase).
//
// The Theorem 1 pipeline is deterministic given (graph, config, seed), and
// its expensive middle — ~2·λ·log m greedy Borůvka iterations, then one
// 2-respecting solve per tree — decomposes into commit-sized units whose
// outputs depend only on committed predecessors. A SolveCheckpoint is the
// write-ahead journal of those units: the packing setup (λ seed and, on the
// sampled route, the Karger sample and generator state), every packed tree
// with its ledger charges, and every solved tree's CutResult. A crash
// between commits loses at most the in-flight unit; the journaled entry
// points replay the journal — same trees, same order, same charges, same
// generator exit state as an uninterrupted run — and continue live from the
// first uncommitted unit (exact_mincut and tree_packing take the journal
// as an optional pointer; null is the plain solve). That is what turns the
// supervisor's "retry" tier into checkpoint replay instead of a
// from-scratch re-solve.
//
// Crashes are simulated through a CrashHook fired just BEFORE each commit:
// throwing crash_error loses exactly that unit. Hooks must decide from
// (phase, index) alone — tree solves run in parallel, so an order-sensitive
// hook would randomize which units survive; the RESULT is insensitive to
// that set (uncommitted units are recomputed deterministically), but
// termination is not, so a hook must also fire each (phase, index) at most
// once per plan or the resume loop re-crashes forever.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"

namespace umc::mincut {

/// Commit points of the journaled solve (and crash-hook fire sites).
enum class SolvePhase {
  kPackingSetup,      // λ seed + (case B) Karger sample committed
  kPackingIteration,  // one greedy Borůvka iteration committed (index = iteration)
  kTreeSolve,         // one tree's 2-respecting result committed (index = tree)
};

[[nodiscard]] const char* to_string(SolvePhase p);

/// Thrown by a CrashHook to simulate a process crash at a commit point.
/// Deliberately NOT an invariant_error: a crash is environmental, not a
/// model violation, so the supervisor answers it with a checkpoint-replay
/// retry rather than a degradation to the baseline.
class crash_error : public std::runtime_error {
 public:
  crash_error(SolvePhase phase, std::int64_t index);

  [[nodiscard]] SolvePhase phase() const { return phase_; }
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  SolvePhase phase_;
  std::int64_t index_;
};

/// Fired just before the commit of (phase, index); may throw crash_error.
/// Null/empty means no crash injection.
using CrashHook = std::function<void(SolvePhase, std::int64_t)>;

/// Journal of the tree-packing producer. `setup_done` gates the committed
/// setup fields; `trees` / `iteration_phases` grow one entry per committed
/// iteration. The binding triple (graph_fp, config_fp, rng_entry) pins the
/// journal to one solve — resuming with a different graph, config, or seed
/// is a model violation, not a silent wrong replay.
struct PackingCheckpoint {
  std::uint64_t graph_fp = 0;
  std::uint64_t config_fp = 0;
  Rng::State rng_entry{};

  bool setup_done = false;
  Weight lambda_seed = 0;
  bool sampled = false;
  /// Case B only: per-ORIGINAL-edge sampled multiplicity (0 = absent from
  /// the sample); the packing substrate is rebuilt from this on resume.
  std::vector<Weight> multiplicity;
  Rng::State rng_after_setup{};
  minoragg::Ledger setup_charges;
  int iterations = 0;  // target greedy iteration count

  std::vector<std::vector<EdgeId>> trees;  // original edge ids, emit order
  /// Borůvka phases of each committed iteration, which determine its charge
  /// (charge_packing_iteration in tree_packing.hpp).
  std::vector<int> iteration_phases;

  [[nodiscard]] bool empty() const { return !setup_done; }
  [[nodiscard]] bool complete() const {
    return setup_done && static_cast<int>(trees.size()) == iterations;
  }
  [[nodiscard]] int committed_iterations() const { return static_cast<int>(trees.size()); }
};

/// Journal of the full exact solve: the producer's checkpoint plus each
/// tree's committed 2-respecting result. Per-tree entries commit out of
/// order under parallel solves (solved_mask is what resume consults); the
/// merged result and ledger are nevertheless bit-identical to an
/// uninterrupted run, because uncommitted trees re-solve deterministically
/// and everything merges in tree-index order.
struct SolveCheckpoint {
  PackingCheckpoint packing;
  std::vector<CutResult> solved;
  std::vector<char> solved_mask;
  std::vector<minoragg::Ledger> solve_charges;
  /// Journal entries replayed (not recomputed) by journaled runs so far —
  /// observability for the supervisor's recovery accounting.
  std::int64_t replayed_units = 0;

  [[nodiscard]] bool empty() const { return packing.empty() && committed_solves() == 0; }
  [[nodiscard]] std::int64_t committed_solves() const;
  /// Grows the per-tree journals to `count` slots (no-op when large enough).
  void note_tree_count(std::size_t count);
};

}  // namespace umc::mincut
