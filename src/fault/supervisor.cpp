#include "fault/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "baseline/karger_stein.hpp"
#include "congest/compiled_network.hpp"
#include "congest/gather_baseline.hpp"
#include "fault/reliable_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace umc::fault {

namespace {

struct SupervisorMetrics {
  obs::Counter& retries = obs::MetricsRegistry::global().counter(
      "umc_supervisor_retries_total", {},
      "Exact-tier retries the supervisor issued (crash replays plus "
      "reseeded-packing retries after a failed certification).");
  obs::Counter& tier_falls = obs::MetricsRegistry::global().counter(
      "umc_supervisor_tier_falls_total", {},
      "Degradation-ladder steps taken (exact -> checkpoint replay -> "
      "Karger-Stein -> gather baseline).");
  obs::Counter& checkpoint_replays = obs::MetricsRegistry::global().counter(
      "umc_supervisor_checkpoint_replays_total", {},
      "Journaled pipeline units (packed trees, solved trees) replayed from "
      "a SolveCheckpoint instead of recomputed after a crash.");
};

SupervisorMetrics& supervisor_metrics() {
  static SupervisorMetrics m;
  return m;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Karger–Stein repeats: ceil(log2 n)^2, the whp setting.
int default_ks_repeats(NodeId n) {
  const int logn = static_cast<int>(std::ceil(std::log2(std::max<NodeId>(2, n))));
  return std::max(1, logn * logn);
}

}  // namespace

Weight resummed_cut_value(const WeightedGraph& g, const std::vector<NodeId>& side) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  for (const NodeId v : side) in[static_cast<std::size_t>(v)] = 1;
  Weight total = 0;
  for (const Edge& e : g.edges())
    if (in[static_cast<std::size_t>(e.u)] != in[static_cast<std::size_t>(e.v)]) total += e.w;
  return total;
}

const char* to_string(SolveTier t) {
  switch (t) {
    case SolveTier::kExact: return "exact";
    case SolveTier::kCheckpointReplay: return "checkpoint-replay";
    case SolveTier::kKargerStein: return "karger-stein";
    case SolveTier::kGatherBaseline: return "gather-baseline";
  }
  return "?";
}

std::string SolveReport::to_string() const {
  std::ostringstream os;
  os << "tier=" << fault::to_string(tier) << " value=" << value
     << (certified ? " certified" : " UNCERTIFIED") << " retries=" << retries
     << " tier_falls=" << tier_falls << " replays=" << checkpoint_replays
     << " rounds=" << rounds;
  if (!reason.empty()) os << " reason=\"" << reason << "\"";
  if (!certificate.empty()) os << " certificate=\"" << certificate << "\"";
  return os.str();
}

mincut::CrashHook crash_plan_hook(const FaultPlan& plan) {
  if (plan.crash_p <= 0.0) return nullptr;
  // The fired-set makes each site crash at most once per plan, so crash
  // retries converge; shared_ptr keeps it alive inside the returned closure
  // and the mutex covers parallel tree-solve commits.
  struct State {
    std::mutex mu;
    std::set<std::pair<int, std::int64_t>> fired;
  };
  auto state = std::make_shared<State>();
  const std::uint64_t seed = plan.seed;
  const double crash_p = plan.crash_p;
  return [state, seed, crash_p](mincut::SolvePhase phase, std::int64_t index) {
    const auto site = std::make_pair(static_cast<int>(phase), index);
    const std::uint64_t h =
        mix64(seed ^ mix64(0x53555056ULL ^ mix64(static_cast<std::uint64_t>(site.first) ^
                                                 mix64(static_cast<std::uint64_t>(index)))));
    if (static_cast<double>(h >> 11) * 0x1.0p-53 >= crash_p) return;
    {
      const std::lock_guard<std::mutex> lock(state->mu);
      if (!state->fired.insert(site).second) return;  // already crashed here
    }
    throw mincut::crash_error(phase, index);
  };
}

SolveReport SolveSupervisor::solve(const WeightedGraph& g, const mincut::CrashHook& hook,
                                   mincut::PerTreeCuts* per_tree) const {
  UMC_ASSERT(g.n() >= 2);
  const Clock::time_point t0 = Clock::now();
  SolveReport report;
  UMC_OBS_SPAN_VAR_L(obs_solve, "supervisor/solve", "fault", g.n());
  obs_solve.arg("entry_tier", static_cast<std::int64_t>(cfg_.entry_tier));

  std::int64_t spent_rounds = 0;
  const auto over_budget = [&](std::string& why) {
    if (cfg_.round_budget > 0 && spent_rounds >= cfg_.round_budget) {
      why = "round budget exhausted (" + std::to_string(spent_rounds) + " >= " +
            std::to_string(cfg_.round_budget) + ")";
      return true;
    }
    if (cfg_.wall_budget_ms > 0.0 && ms_since(t0) >= cfg_.wall_budget_ms) {
      why = "wall deadline exceeded";
      return true;
    }
    return false;
  };
  const auto fall = [&](const std::string& why) {
    report.tier_falls += 1;
    if (report.reason.empty())
      report.reason = why;
    else
      report.reason += "; " + why;
    supervisor_metrics().tier_falls.inc();
  };
  const auto record = [&](SolveTier tier, int attempt, std::string outcome, std::int64_t rounds,
                          double start_ms) {
    report.attempts.push_back(
        {tier, attempt, std::move(outcome), rounds, ms_since(t0) - start_ms});
  };

  bool try_exact = cfg_.entry_tier <= SolveTier::kCheckpointReplay;
  bool try_karger = cfg_.entry_tier <= SolveTier::kKargerStein;
  if (cfg_.entry_tier == SolveTier::kKargerStein) fall("entry tier forced to karger-stein");
  if (cfg_.entry_tier == SolveTier::kGatherBaseline) fall("entry tier forced to gather-baseline");

  // --- Transport preflight -------------------------------------------------
  if (try_exact && cfg_.preflight_plan != nullptr && !cfg_.preflight_plan->trivial()) {
    UMC_OBS_SPAN_L("supervisor/preflight", "fault", g.n());
    const double start_ms = ms_since(t0);
    FaultModel model(g, *cfg_.preflight_plan);
    ReliableConfig rc;
    rc.mode = ArqMode::kGoBackN;
    ReliableChannel net(g, &model, rc);
    std::vector<std::int64_t> cost(static_cast<std::size_t>(g.m()));
    for (EdgeId e = 0; e < g.m(); ++e) cost[static_cast<std::size_t>(e)] = g.edge(e).w;
    try {
      const congest::CompiledBoruvkaResult pf = congest::compiled_boruvka(net, cost);
      net.drain();
      spent_rounds += pf.congest_rounds;
      record(SolveTier::kExact, 0, "preflight ok", pf.congest_rounds, start_ms);
    } catch (const invariant_error& e) {
      record(SolveTier::kExact, 0, std::string("preflight failed: ") + e.what(), 0, start_ms);
      fall(std::string("transport preflight failed: ") + e.what());
      try_exact = false;
    }
  }

  // --- Exact tier (with checkpoint-replay and reseeded retries) ------------
  if (try_exact) {
    mincut::SolveCheckpoint ckpt;
    std::uint64_t seed = cfg_.seed;
    int crashes = 0;
    int reseeds = 0;
    int attempt = 0;
    bool first_attempt = true;
    std::int64_t replays = 0;
    for (;;) {
      std::string why;
      if (over_budget(why)) {
        fall(why);
        break;
      }
      const double start_ms = ms_since(t0);
      Rng rng(seed);
      minoragg::Ledger ledger;
      mincut::ExactMinCutResult result;
      try {
        result = mincut::exact_mincut(g, rng, ledger, cfg_.packing, cfg_.num_threads, &ckpt,
                                      hook, per_tree);
      } catch (const mincut::crash_error& e) {
        spent_rounds += ledger.rounds();
        record(SolveTier::kExact, attempt++, std::string("crash: ") + e.what(), ledger.rounds(),
               start_ms);
        replays = ckpt.replayed_units;
        if (++crashes > cfg_.max_retries) {
          fall("crash retry budget exhausted after " + std::to_string(crashes) + " crashes");
          break;
        }
        report.retries += 1;
        supervisor_metrics().retries.inc();
        continue;  // checkpoint replay: ckpt survives, rng reset by loop head
      } catch (const invariant_error& e) {
        spent_rounds += ledger.rounds();
        record(SolveTier::kExact, attempt++, std::string("invariant: ") + e.what(),
               ledger.rounds(), start_ms);
        fall(std::string("invariant violation in exact tier: ") + e.what());
        break;
      }
      spent_rounds += ledger.rounds();
      replays = ckpt.replayed_units;

      if (cfg_.inject_result_corruption && first_attempt) result.value += 1;
      first_attempt = false;

      if (cfg_.verify) {
        mincut::GuardConfig guard;
        guard.packing = cfg_.packing;
        const std::vector<std::string> failures =
            mincut::verify_mincut_result(g, seed, guard, result);
        if (!failures.empty()) {
          record(SolveTier::kExact, attempt++, "guard: " + failures.front(), ledger.rounds(),
                 start_ms);
          if (++reseeds > cfg_.max_reseeds) {
            fall("certification failed after " + std::to_string(reseeds) +
                 " seeds: " + failures.front());
            break;
          }
          report.retries += 1;
          supervisor_metrics().retries.inc();
          // Reseed: a fresh packing seed means a fresh journal binding.
          seed = mix64(cfg_.seed ^ mix64(static_cast<std::uint64_t>(reseeds)));
          ckpt = mincut::SolveCheckpoint();
          continue;
        }
      }

      record(SolveTier::kExact, attempt, "ok", ledger.rounds(), start_ms);
      report.tier =
          (crashes > 0 || replays > 0) ? SolveTier::kCheckpointReplay : SolveTier::kExact;
      report.value = result.value;
      report.exact = result;
      report.ledger = std::move(ledger);
      report.rounds = report.ledger.rounds();
      report.certified = cfg_.verify;
      report.certificate =
          cfg_.verify ? "guard battery: packing replay + witness re-sum + deterministic re-run"
                      : "";
      report.checkpoint_replays = replays;
      supervisor_metrics().checkpoint_replays.inc(replays);
      if (per_tree != nullptr && (report.tier != SolveTier::kExact || report.retries != 0))
        *per_tree = {};
      report.wall_ms = ms_since(t0);
      obs_solve.arg("tier", static_cast<std::int64_t>(report.tier));
      return report;
    }
    report.checkpoint_replays = replays;
    supervisor_metrics().checkpoint_replays.inc(replays);
  }

  if (per_tree != nullptr) *per_tree = {};  // a rejected attempt's packing

  // --- Karger–Stein tier ---------------------------------------------------
  if (try_karger) {
    UMC_OBS_SPAN_L("supervisor/karger_stein", "fault", g.n());
    const double start_ms = ms_since(t0);
    const int repeats = default_ks_repeats(g.n());
    Rng rng(mix64(cfg_.seed ^ 0x4b53ULL));
    const baseline::GlobalMinCut ks = baseline::karger_stein_witness(g, repeats, rng);
    const Weight resum = resummed_cut_value(g, ks.side);
    if (resum == ks.value && !ks.side.empty() &&
        static_cast<NodeId>(ks.side.size()) < g.n()) {
      record(SolveTier::kKargerStein, 0, "ok", 0, start_ms);
      report.tier = SolveTier::kKargerStein;
      report.value = ks.value;
      report.witness_side = ks.side;
      report.certified = true;
      report.certificate = "cut witness re-sum (" + std::to_string(repeats) +
                           "-repeat Monte Carlo; upper bound, exact whp)";
      report.rounds = 0;  // centralized: no charged CONGEST rounds
      report.wall_ms = ms_since(t0);
      obs_solve.arg("tier", static_cast<std::int64_t>(report.tier));
      return report;
    }
    record(SolveTier::kKargerStein, 0,
           "witness re-sum mismatch: " + std::to_string(ks.value) + " vs " +
               std::to_string(resum),
           0, start_ms);
    fall("karger-stein witness failed to re-sum");
  }

  // --- Gather baseline: the unconditional floor ----------------------------
  {
    UMC_OBS_SPAN_L("supervisor/gather_baseline", "fault", g.n());
    const double start_ms = ms_since(t0);
    const congest::GatherBaselineResult fb = congest::gather_exact_mincut(g, /*root=*/0);
    record(SolveTier::kGatherBaseline, 0, "ok", fb.rounds_used, start_ms);
    report.tier = SolveTier::kGatherBaseline;
    report.value = fb.min_cut_value;
    report.certified = true;
    report.certificate = "exhaustive gather at the root (exact by construction)";
    report.rounds = fb.rounds_used;
    report.ledger.charge(fb.rounds_used);
    report.wall_ms = ms_since(t0);
    obs_solve.arg("tier", static_cast<std::int64_t>(report.tier));
  }
  return report;
}

}  // namespace umc::fault
