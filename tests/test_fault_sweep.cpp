// SolveSupervisor unit tests (degradation ladder, budgets, checkpoint
// replay, reseeded retries) and the differential fault-sweep gate: the
// standard generator × fault-plan × tier matrix must produce ZERO silent
// wrong answers — every value matches the fault-free oracle or the report
// flags a certified degraded tier whose witness independently re-sums.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "baseline/stoer_wagner.hpp"
#include "fault/supervisor.hpp"
#include "fault/sweep.hpp"
#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"
#include "util/rng.hpp"

namespace umc::fault {
namespace {

WeightedGraph test_graph(std::uint64_t seed, int n = 20, double p = 0.3) {
  Rng rng(seed);
  WeightedGraph g = erdos_renyi_connected(n, p, rng);
  randomize_weights(g, 1, 5, rng);
  return g;
}

TEST(Supervisor, ExactTierCleanRun) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(301);
  SupervisorConfig cfg;
  cfg.seed = 7;
  mincut::PerTreeCuts per_tree;
  const SolveReport report = SolveSupervisor(cfg).solve(g, nullptr, &per_tree);
  EXPECT_EQ(report.tier, SolveTier::kExact);
  EXPECT_EQ(report.value, baseline::stoer_wagner(g).value);
  EXPECT_TRUE(report.certified);
  EXPECT_FALSE(report.certificate.empty());
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.tier_falls, 0);
  EXPECT_EQ(report.checkpoint_replays, 0);
  EXPECT_GT(report.rounds, 0);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts[0].outcome, "ok");
  EXPECT_TRUE(report.reason.empty());

  // A first-try exact answer hands back exactly the bare solve's packing.
  Rng rng(cfg.seed);
  minoragg::Ledger ledger;
  mincut::PerTreeCuts ref;
  (void)mincut::exact_mincut(g, rng, ledger, cfg.packing, cfg.num_threads, nullptr, nullptr,
                             &ref);
  EXPECT_EQ(per_tree.trees, ref.trees);
  ASSERT_EQ(per_tree.cuts.size(), ref.cuts.size());
  for (std::size_t i = 0; i < ref.cuts.size(); ++i) {
    EXPECT_EQ(per_tree.cuts[i].value, ref.cuts[i].value) << "tree " << i;
    EXPECT_EQ(per_tree.cuts[i].e, ref.cuts[i].e) << "tree " << i;
    EXPECT_EQ(per_tree.cuts[i].f, ref.cuts[i].f) << "tree " << i;
  }
}

TEST(Supervisor, CrashesRecoverViaCheckpointReplay) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(303);
  const Weight oracle = baseline::stoer_wagner(g).value;
  SupervisorConfig cfg;
  cfg.seed = 11;
  cfg.max_retries = 5;
  // Three crashes across the pipeline: setup, a mid-packing iteration, a
  // tree solve. Each fires once; the supervisor must replay, not restart.
  std::set<std::pair<mincut::SolvePhase, std::int64_t>> sites = {
      {mincut::SolvePhase::kPackingSetup, 0},
      {mincut::SolvePhase::kPackingIteration, 2},
      {mincut::SolvePhase::kTreeSolve, 1}};
  const SolveReport report = SolveSupervisor(cfg).solve(
      g, [&](mincut::SolvePhase phase, std::int64_t index) {
        const auto it = sites.find({phase, index});
        if (it == sites.end()) return;
        sites.erase(it);
        throw mincut::crash_error(phase, index);
      });
  EXPECT_EQ(report.tier, SolveTier::kCheckpointReplay);
  EXPECT_EQ(report.value, oracle);
  EXPECT_TRUE(report.certified);
  EXPECT_GE(report.retries, 1);
  EXPECT_GT(report.checkpoint_replays, 0);
  EXPECT_EQ(report.tier_falls, 0);
  EXPECT_GE(report.attempts.size(), 2u);  // at least one crash + the success
  EXPECT_NE(report.attempts.front().outcome.find("crash"), std::string::npos);
  EXPECT_EQ(report.attempts.back().outcome, "ok");
}

TEST(Supervisor, CorruptedResultTriggersReseededRetry) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(305);
  SupervisorConfig cfg;
  cfg.seed = 13;
  cfg.inject_result_corruption = true;  // first attempt's value is off by one
  const SolveReport report = SolveSupervisor(cfg).solve(g);
  EXPECT_EQ(report.tier, SolveTier::kExact);
  EXPECT_EQ(report.value, baseline::stoer_wagner(g).value);
  EXPECT_TRUE(report.certified);
  EXPECT_EQ(report.retries, 1);  // one reseeded retry
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(report.attempts[0].outcome.find("guard"), std::string::npos);
  EXPECT_EQ(report.attempts[1].outcome, "ok");
}

TEST(Supervisor, CertificationFailureDegradesPastExactTier) {
  // No reseed budget: the guards reject the corrupted first attempt and the
  // ladder must fall to a certified degraded tier with the correct value.
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(305);
  SupervisorConfig cfg;
  cfg.seed = 13;
  cfg.max_reseeds = 0;
  cfg.inject_result_corruption = true;
  mincut::PerTreeCuts per_tree;
  const SolveReport report = SolveSupervisor(cfg).solve(g, nullptr, &per_tree);
  EXPECT_TRUE(report.degraded()) << report.to_string();
  EXPECT_TRUE(report.certified);
  EXPECT_NE(report.reason.find("certification failed"), std::string::npos) << report.reason;
  EXPECT_EQ(report.value, baseline::stoer_wagner(g).value);
  // The rejected attempt's packing is not handed back.
  EXPECT_TRUE(per_tree.trees.empty());
  EXPECT_TRUE(per_tree.cuts.empty());
}

TEST(Supervisor, UncertifiedCorruptionIsServedWithoutCertificate) {
  // With verification off the corruption sails through — but the report
  // says so (certified == false), which is what the sweep audit keys on.
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(307);
  SupervisorConfig cfg;
  cfg.seed = 17;
  cfg.verify = false;
  cfg.inject_result_corruption = true;
  const SolveReport report = SolveSupervisor(cfg).solve(g);
  EXPECT_EQ(report.tier, SolveTier::kExact);
  EXPECT_NE(report.value, baseline::stoer_wagner(g).value);
  EXPECT_FALSE(report.certified);
}

TEST(Supervisor, CrashRetryBudgetExhaustionDegradesToKargerStein) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(309);
  const Weight oracle = baseline::stoer_wagner(g).value;
  SupervisorConfig cfg;
  cfg.seed = 19;
  cfg.max_retries = 1;
  // Crash three distinct sites; the second crash exceeds max_retries = 1.
  std::set<std::int64_t> crashed;
  const SolveReport report = SolveSupervisor(cfg).solve(
      g, [&](mincut::SolvePhase phase, std::int64_t index) {
        if (phase != mincut::SolvePhase::kPackingIteration || index > 2) return;
        if (!crashed.insert(index).second) return;
        throw mincut::crash_error(phase, index);
      });
  EXPECT_EQ(report.tier, SolveTier::kKargerStein);
  EXPECT_GE(report.tier_falls, 1);
  EXPECT_TRUE(report.certified);
  EXPECT_FALSE(report.witness_side.empty());
  EXPECT_EQ(resummed_cut_value(g, report.witness_side), report.value);
  EXPECT_GE(report.value, oracle);  // a valid cut is never below the min
  EXPECT_NE(report.reason.find("crash retry budget"), std::string::npos);
}

TEST(Supervisor, RoundBudgetDegradesBeforeExactAttempt) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(311);
  // The preflight's charged transport rounds count against the budget, so a
  // 1-round budget is exhausted before the exact tier ever starts.
  FaultPlan plan;
  plan.seed = 23;
  plan.drop_p = 0.01;
  SupervisorConfig cfg;
  cfg.seed = 23;
  cfg.round_budget = 1;
  cfg.preflight_plan = &plan;
  const SolveReport report = SolveSupervisor(cfg).solve(g);
  EXPECT_EQ(report.tier, SolveTier::kKargerStein);
  EXPECT_NE(report.reason.find("round budget exhausted"), std::string::npos);
  EXPECT_GE(report.value, baseline::stoer_wagner(g).value);
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_EQ(report.attempts.front().outcome, "preflight ok");
  EXPECT_GT(report.attempts.front().rounds, 1);
}

TEST(Supervisor, EntryTierForcing) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = test_graph(313);
  const Weight oracle = baseline::stoer_wagner(g).value;
  {
    SupervisorConfig cfg;
    cfg.seed = 29;
    cfg.entry_tier = SolveTier::kKargerStein;
    const SolveReport report = SolveSupervisor(cfg).solve(g);
    EXPECT_EQ(report.tier, SolveTier::kKargerStein);
    EXPECT_TRUE(report.certified);
    EXPECT_EQ(resummed_cut_value(g, report.witness_side), report.value);
    EXPECT_GE(report.value, oracle);
  }
  {
    SupervisorConfig cfg;
    cfg.seed = 29;
    cfg.entry_tier = SolveTier::kGatherBaseline;
    const SolveReport report = SolveSupervisor(cfg).solve(g);
    EXPECT_EQ(report.tier, SolveTier::kGatherBaseline);
    EXPECT_TRUE(report.certified);
    EXPECT_EQ(report.value, oracle);  // exhaustive gather is exact
    EXPECT_GT(report.rounds, 0);
  }
}

TEST(Supervisor, PreflightFailureSkipsExactTier) {
  mincut::PackingCache::global().clear();
  const WeightedGraph g = path_graph(4);
  FaultPlan plan;
  plan.seed = 31;
  plan.drop_p = 0.999;  // the wire is unusable; the ARQ layer must give up
  SupervisorConfig cfg;
  cfg.seed = 31;
  cfg.preflight_plan = &plan;
  const SolveReport report = SolveSupervisor(cfg).solve(g);
  EXPECT_GE(report.tier, SolveTier::kKargerStein);
  EXPECT_NE(report.reason.find("preflight"), std::string::npos);
  EXPECT_GE(report.value, baseline::stoer_wagner(g).value);
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_NE(report.attempts.front().outcome.find("preflight failed"), std::string::npos);
}

TEST(Supervisor, CrashPlanHookIsDeterministicAndFiresOncePerSite) {
  FaultPlan plan;
  plan.seed = 37;
  plan.crash_p = 0.5;
  const mincut::CrashHook hook = crash_plan_hook(plan);
  ASSERT_TRUE(hook);
  // Find a crashing site; the same site must not crash twice.
  bool crashed_once = false;
  for (std::int64_t i = 0; i < 64 && !crashed_once; ++i) {
    try {
      hook(mincut::SolvePhase::kPackingIteration, i);
    } catch (const mincut::crash_error& e) {
      crashed_once = true;
      EXPECT_NO_THROW(hook(mincut::SolvePhase::kPackingIteration, e.index()));
    }
  }
  EXPECT_TRUE(crashed_once) << "crash_p=0.5 over 64 sites";
  EXPECT_FALSE(crash_plan_hook({}));  // crash-free plan: null hook
}

TEST(FaultSweep, StandardMatrixHasNoSilentWrongAnswers) {
  mincut::PackingCache::global().clear();
  SweepConfig cfg;
  cfg.seed = 1;
  const SweepSummary summary = run_fault_sweep(cfg);
  EXPECT_GE(summary.configs, 96);
  EXPECT_EQ(summary.silent_wrong, 0) << summary.table();
  EXPECT_EQ(static_cast<std::size_t>(summary.configs), summary.outcomes.size());
  EXPECT_EQ(summary.tier_hits[0] + summary.tier_hits[1] + summary.tier_hits[2] +
                summary.tier_hits[3],
            summary.configs);
  EXPECT_EQ(summary.oracle_matches + summary.degraded_flagged, summary.configs);

  int audited = 0;
  for (const SweepOutcome& o : summary.outcomes) {
    EXPECT_FALSE(o.silent_wrong) << o.generator << " × " << o.plan << " × "
                                 << to_string(o.entry_tier) << ": value " << o.value
                                 << " vs oracle " << o.oracle << " (" << o.detail << ")";
    EXPECT_TRUE(o.match || (o.certified && o.witness_valid));
    EXPECT_GE(o.value, o.oracle);  // no valid cut is below the min cut
    ++audited;
  }
  EXPECT_EQ(audited, summary.configs);

  // Crash plans must have recovered through checkpoint replay somewhere in
  // the matrix — the mid-packing-crash acceptance criterion.
  EXPECT_GT(summary.total_checkpoint_replays, 0);
  EXPECT_GT(summary.tier_hits[static_cast<std::size_t>(SolveTier::kCheckpointReplay)], 0);
  // Forced entry tiers guarantee these rows exist.
  EXPECT_GT(summary.tier_hits[static_cast<std::size_t>(SolveTier::kKargerStein)], 0);
  EXPECT_GT(summary.tier_hits[static_cast<std::size_t>(SolveTier::kGatherBaseline)], 0);
}

TEST(FaultSweep, SummaryRendersTableAndJson) {
  mincut::PackingCache::global().clear();
  SweepConfig cfg;
  cfg.seed = 2;
  const SweepSummary summary = run_fault_sweep(cfg);
  const std::string table = summary.table();
  EXPECT_NE(table.find("plan"), std::string::npos);
  EXPECT_NE(table.find("silent_wrong=0"), std::string::npos);
  const std::string json = summary.to_json();
  EXPECT_NE(json.find("\"schema\":\"fault_sweep/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"silent_wrong\":0"), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\":["), std::string::npos);
}

}  // namespace
}  // namespace umc::fault
