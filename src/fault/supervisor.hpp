#pragma once

// SolveSupervisor — resilient exact-min-cut execution under budgets, crash
// faults, and corruption, with a graceful-degradation ladder.
//
// The codebase's one certification ladder: mincutd's SOLVE, the fault
// sweep, the stream full tier and the one-shot CLI all run it. It
// pairs the Theorem 1 pipeline with the guard battery of
// mincut::verify_mincut_result, enforces per-solve round and wall budgets,
// answers crashes with CHECKPOINT REPLAY (mincut/solve_checkpoint.hpp)
// instead of a from-scratch re-solve, answers guard failures with a bounded
// number of reseeded-packing retries, and only then walks down the ladder
//
//   kExact            Theorem 1 pipeline (exact_mincut with a
//                     SolveCheckpoint journal — the same pipelined session
//                     cold solves run), certified by the guard battery
//   kCheckpointReplay same answer, but at least one crash retry resumed
//                     from the journal (cost excludes the replayed prefix)
//   kKargerStein      centralized recursive contraction (Monte Carlo),
//                     certified by re-summing its own cut witness
//   kGatherBaseline   exhaustive Θ(D + m) gather — always exact, the
//                     unconditional floor of the ladder
//
// returning a structured SolveReport: which tier answered, why, what it
// cost, and what certificate backs the value. Every attempt — crashed,
// rejected, or over budget — is recorded, so a fault sweep can audit the
// full decision trail. Recovery accounting is exported through the
// umc_supervisor_{retries,tier_falls,checkpoint_replays}_total counters and
// traced as supervisor/* spans.
//
// An optional transport preflight runs compiled Borůvka over a
// ReliableChannel under the configured FaultPlan first: if the wire cannot
// sustain exactly-once delivery under the adversary (invariant_error from
// the ARQ layer), the distributed exact tier is skipped outright — the
// supervisor degrades to the local tiers rather than wedging.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "graph/graph.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/solve_checkpoint.hpp"
#include "minoragg/ledger.hpp"

namespace umc::fault {

/// Ladder tiers, in degradation order.
enum class SolveTier {
  kExact = 0,
  kCheckpointReplay = 1,
  kKargerStein = 2,
  kGatherBaseline = 3,
};

[[nodiscard]] const char* to_string(SolveTier t);

struct SupervisorConfig {
  /// Seed for the packing (and, mixed per reseed retry, its replacements).
  std::uint64_t seed = 1;
  /// Thread width of the exact tier's solve session.
  int num_threads = 1;
  /// Charged-round ceiling summed across exact-tier attempts (0 = none):
  /// once exceeded, the supervisor stops retrying and degrades.
  std::int64_t round_budget = 0;
  /// Wall-clock deadline in milliseconds across the whole solve (0 = none);
  /// checked between attempts, never mid-attempt.
  double wall_budget_ms = 0.0;
  /// Crash retries (checkpoint replays) before degrading.
  int max_retries = 3;
  /// Reseeded-packing retries after a failed certification before degrading.
  int max_reseeds = 1;
  /// Certify exact-tier answers with the guard battery
  /// (verify_mincut_result); OFF serves them uncertified.
  bool verify = true;
  /// Drill knob: corrupt the first exact attempt's value before
  /// certification — with `verify` on, the guards must catch it and trigger
  /// a reseeded retry; with it off, the corruption sails through (which is
  /// what the fault sweep's silent-wrong audit exists to catch).
  bool inject_result_corruption = false;
  mincut::PackingConfig packing;
  /// Start the ladder at this tier (skip the ones above) — how the fault
  /// sweep exercises every tier's answer path directly.
  SolveTier entry_tier = SolveTier::kExact;
  /// When set, run the transport preflight (Go-Back-N ARQ) under this plan
  /// before the exact tier. Not owned; must outlive the solve.
  const FaultPlan* preflight_plan = nullptr;
};

struct TierAttempt {
  SolveTier tier = SolveTier::kExact;
  int attempt = 0;            // 0-based, per solve
  std::string outcome;        // "ok" | "crash: ..." | "guard: ..." | ...
  std::int64_t rounds = 0;    // charged rounds of this attempt
  double wall_ms = 0.0;
};

struct SolveReport {
  SolveTier tier = SolveTier::kExact;  // tier that answered
  Weight value = mincut::kInfWeight;
  /// True when a certificate backs the value: the guard battery for the
  /// exact tiers, a re-summed cut witness for Karger–Stein, exhaustive
  /// enumeration for the gather baseline.
  bool certified = false;
  std::string certificate;  // what backs the answer (human-readable)
  std::string reason;       // why this tier answered (empty: exact, first try)
  int retries = 0;          // crash + reseed retries consumed
  int tier_falls = 0;       // ladder steps taken
  std::int64_t checkpoint_replays = 0;  // journal units replayed across retries
  std::int64_t rounds = 0;  // charged rounds of the answering attempt
  double wall_ms = 0.0;     // total supervisor wall time
  minoragg::Ledger ledger;  // answering attempt's charges
  /// Valid iff tier is kExact or kCheckpointReplay.
  mincut::ExactMinCutResult exact;
  /// Valid iff tier is kKargerStein: one side of the certified witness cut.
  std::vector<NodeId> witness_side;
  std::vector<TierAttempt> attempts;  // full decision trail, in order

  [[nodiscard]] bool degraded() const { return tier >= SolveTier::kKargerStein; }
  [[nodiscard]] std::string to_string() const;
};

class SolveSupervisor {
 public:
  explicit SolveSupervisor(SupervisorConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// Requires a connected graph with n >= 2. `hook` injects crashes at the
  /// pipeline's commit points (tests and fault drills); it must fire each
  /// (phase, index) site at most once per solve. `per_tree`, when set,
  /// receives the packing trees and per-tree cuts of a first-try exact
  /// answer (tier kExact, no retries — the only packing that belongs to
  /// `cfg.seed`) and is left empty for every other answer.
  [[nodiscard]] SolveReport solve(const WeightedGraph& g,
                                  const mincut::CrashHook& hook = nullptr,
                                  mincut::PerTreeCuts* per_tree = nullptr) const;

  [[nodiscard]] const SupervisorConfig& config() const { return cfg_; }

 private:
  SupervisorConfig cfg_;
};

/// Crossing-weight re-sum of the bipartition `side` / V∖`side` — the
/// witness check behind the Karger–Stein tier's certificate and the fault
/// sweep's independent audit of every degraded answer.
[[nodiscard]] Weight resummed_cut_value(const WeightedGraph& g, const std::vector<NodeId>& side);

/// Derives a crash-injection hook from a FaultPlan's crash schedule: each
/// pipeline commit site (phase, index) crashes with probability crash_p,
/// decided by mix64(plan.seed, phase, index) — deterministic per plan, and
/// fired at most once per site (the returned hook carries the fired-set, so
/// retries resume past earlier crashes instead of re-hitting them forever).
/// Thread-safe; an all-zero crash_p yields a null hook.
[[nodiscard]] mincut::CrashHook crash_plan_hook(const FaultPlan& plan);

}  // namespace umc::fault
