#pragma once

// Differential fault sweep — the cross-tier audit harness.
//
// Runs the SolveSupervisor over a matrix of
//
//   generators  ×  fault plans (drop / dup / corrupt / crash,
//                  p ∈ {0, .01, .1, .3})  ×  ladder entry tiers
//
// and cross-checks EVERY answer against the fault-free oracle (Stoer–
// Wagner on the pristine graph). The acceptance contract is "zero silent
// wrong answers": a returned cut value either matches the oracle exactly,
// or the SolveReport flags a degraded tier whose witness independently
// re-sums to the reported value (a valid — possibly non-minimum — cut).
// Anything else is a silent wrong answer and fails the sweep.
//
// Message-fault plans exercise the transport preflight (compiled Borůvka
// over a ReliableChannel under the plan); crash plans are additionally
// turned into pipeline crash schedules via crash_plan_hook, so mid-packing
// crash windows recover through checkpoint replay. The audit re-checks
// the supervisor's certificates: the guard battery
// (mincut::verify_mincut_result) certifies exact-tier answers, the witness
// re-sum certifies Monte Carlo answers, and the sweep re-verifies both
// independently of the supervisor.
//
// tests/test_fault_sweep.cpp runs the standard matrix (≥ 96 configurations)
// as a tier-1 gate; tools/fault_sweep is the CLI driver with --extended for
// the nightly job's larger matrix.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/supervisor.hpp"
#include "graph/graph.hpp"

namespace umc::fault {

struct SweepConfig {
  /// Larger plan matrix and bigger graphs (the nightly CI job).
  bool extended = false;
  std::uint64_t seed = 1;
  /// Thread width of each supervised solve.
  int num_threads = 1;
};

/// One (generator × plan × entry tier) configuration's audited outcome.
struct SweepOutcome {
  std::string generator;
  std::string plan;
  SolveTier entry_tier = SolveTier::kExact;
  SolveTier tier = SolveTier::kExact;  // tier that answered
  Weight oracle = 0;                   // fault-free Stoer–Wagner value
  Weight value = 0;
  bool certified = false;
  bool match = false;         // value == oracle
  bool witness_valid = false;  // sweep-side independent witness re-sum
  /// The failure mode the sweep exists to catch: a mismatching value NOT
  /// flagged as a certified degraded answer (or a value below the oracle,
  /// which no valid cut can produce).
  bool silent_wrong = false;
  int retries = 0;
  int tier_falls = 0;
  std::int64_t checkpoint_replays = 0;
  std::int64_t rounds = 0;
  std::string detail;  // SolveReport.reason
};

struct SweepSummary {
  std::vector<SweepOutcome> outcomes;
  int configs = 0;
  int oracle_matches = 0;
  int degraded_flagged = 0;  // mismatches properly flagged (certified degraded)
  int silent_wrong = 0;      // MUST be 0
  std::array<int, 4> tier_hits{};  // answers by tier (SolveTier index)
  std::int64_t total_retries = 0;
  std::int64_t total_tier_falls = 0;
  std::int64_t total_checkpoint_replays = 0;

  /// Human-readable per-plan tier-hit table (the E24 experiment table).
  [[nodiscard]] std::string table() const;
  /// Machine-readable record (schema: fault_sweep/v1).
  [[nodiscard]] std::string to_json() const;
};

/// Runs the matrix; deterministic for a fixed config (modulo wall times).
[[nodiscard]] SweepSummary run_fault_sweep(const SweepConfig& cfg = {});

}  // namespace umc::fault
