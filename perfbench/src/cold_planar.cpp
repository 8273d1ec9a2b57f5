// cold_planar: one caller, closed loop, width 2. Every op is a cold
// exact_mincut on a seeded planar 8x8 instance with max_trees = 16, so the
// lambda seed, packing, 2-respecting solvers, round engine and task graph
// do nearly all the work. Expected values come from Stoer–Wagner during
// setup, outside the timed path.

#include <numeric>

#include "baseline/stoer_wagner.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kWidth = 2;
constexpr int kMaxTrees = 16;
constexpr int kSetupRepeats = 5;

struct Instance {
  umc::WeightedGraph g;
  std::uint64_t packing_seed = 0;
  umc::Weight expected = 0;
};

/// The work set: `count` planar 8x8 instances (diagonal probability 0.4,
/// weights 1..100), each with its own packing seed — a pure function of
/// the workload seed.
std::vector<Instance> make_instances(std::uint64_t seed, int count) {
  std::vector<Instance> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Instance& inst = out[static_cast<std::size_t>(i)];
    umc::Rng rng(umc::mix64(umc::mix64(seed ^ 0x636f6c64ULL) + static_cast<std::uint64_t>(i)));
    inst.g = umc::random_planar_grid(8, 8, 0.4, rng);
    umc::randomize_weights(inst.g, 1, 100, rng);
    (void)inst.g.csr();
    inst.packing_seed = rng.next_u64();
    inst.expected = umc::baseline::stoer_wagner(inst.g).value;
  }
  return out;
}

umc::mincut::PackingConfig packing_config() {
  umc::mincut::PackingConfig cfg;
  cfg.max_trees = kMaxTrees;
  return cfg;
}

/// One solve off the books: spins up the pool's workers and the
/// thread-local arenas.
void warm_up(const std::vector<Instance>& work, std::uint64_t seed) {
  umc::Rng rng(~seed);
  umc::minoragg::Ledger ledger;
  (void)umc::mincut::exact_mincut(work[0].g, rng, ledger, packing_config(), kWidth);
}

Report run_untraced(const Options& opt, int count) {
  Report report;
  note_environment(report, opt, kWidth);
  std::vector<Instance> work;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    work = make_instances(opt.seed, count);
    warm_up(work, opt.seed);
  });
  if (opt.inject_wrong_expected) work[0].expected += 1;

  // Whole passes over the work set; later passes repeat the first one's
  // round counts exactly (the PackingCache holds 4 entries, so cycling
  // through more instances than that misses every time).
  OpLog log;
  std::vector<std::int64_t> rounds(work.size(), -1);
  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0;; ++op) {
    const std::size_t i = op % work.size();
    if (i == 0 && op > 0 && seconds_since(start) >= opt.seconds) break;
    const Instance& inst = work[i];
    umc::Rng rng(inst.packing_seed);
    umc::minoragg::Ledger ledger;
    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    const umc::mincut::ExactMinCutResult r =
        umc::mincut::exact_mincut(inst.g, rng, ledger, packing_config(), kWidth);
    const double ms = ms_since(t0);
    log.cpu_ms += process_cpu_ms() - cpu0;
    log.latency_ms.push_back(ms);
    log.timed_wall_s += ms / 1e3;
    ++log.attempted;
    if (r.value != inst.expected) ++log.failed;
    if (rounds[i] < 0) rounds[i] = ledger.rounds();
    else if (rounds[i] != ledger.rounds()) report.deterministic = false;
  }
  const double ma_rounds =
      static_cast<double>(std::accumulate(rounds.begin(), rounds.end(), std::int64_t{0}));
  report.add_end_to_end(log, setup_s, peak_rss_mb(), ma_rounds);
  report.note("work set: " + std::to_string(work.size()) + " instances, " +
              std::to_string(log.attempted) + " ops; ma_rounds summed over one pass");
  return report;
}

Report run_traced(const Options& opt, int count) {
  Report report;
  note_environment(report, opt, kWidth);
  std::vector<Instance> work = make_instances(opt.seed, count);
  if (opt.inject_wrong_expected) work[0].expected += 1;

  // Phase 1: one pass of the ops themselves, made as the untraced run makes
  // them (width 2 first, nothing interleaved), with CPU and counter deltas.
  // Interleaving the width-1 probes below with width-2 solves sometimes left
  // a whole process's width-2 solves on one thread (pool efficiency 0.49
  // instead of 0.98), which the untraced run never shows.
  warm_up(work, opt.seed);
  double w2_cpu_ms = 0, w2_wall_ms = 0;
  const RegistryCounters before = RegistryCounters::now();
  for (const Instance& inst : work) {
    umc::Rng rng(inst.packing_seed);
    umc::minoragg::Ledger ledger;
    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    const umc::mincut::ExactMinCutResult r =
        umc::mincut::exact_mincut(inst.g, rng, ledger, packing_config(), kWidth);
    w2_wall_ms += ms_since(t0);
    w2_cpu_ms += process_cpu_ms() - cpu0;
    ++report.attempted;
    if (r.value != inst.expected) ++report.failed;
  }
  const RegistryCounters w2 = RegistryCounters::now().since(before);

  // Phase 2: the layer calls of each solve, until --seconds pass.
  std::vector<double> sw_ms, packing_ms, two_respect_ms, unattributed_ms, exact_w1_ms;
  double trees = 0, packing_rounds = 0, two_respect_rounds = 0, tree_count = 0;
  const Clock::time_point start = Clock::now();
  std::size_t solved = 0;
  for (; solved < work.size(); ++solved) {
    if (solved > 0 && seconds_since(start) >= opt.seconds) break;
    const Instance& inst = work[solved];
    const LayerSample s = probe_layers(inst.g, inst.packing_seed, kMaxTrees);
    sw_ms.push_back(s.sw_seed_ms);
    packing_ms.push_back(s.packing_total_ms - s.sw_seed_ms);
    trees += s.trees;
    packing_rounds += static_cast<double>(s.packing_rounds);
    const double tr_sum = std::accumulate(s.two_respect_ms.begin(), s.two_respect_ms.end(), 0.0);
    two_respect_ms.insert(two_respect_ms.end(), s.two_respect_ms.begin(), s.two_respect_ms.end());
    for (const std::int64_t r : s.two_respect_rounds) two_respect_rounds += static_cast<double>(r);
    tree_count += static_cast<double>(s.two_respect_ms.size());
    exact_w1_ms.push_back(s.exact_w1_ms);
    unattributed_ms.push_back(s.exact_w1_ms - s.packing_total_ms - tr_sum);
    if (s.value != inst.expected) ++report.failed;
  }
  const auto n = static_cast<double>(solved);
  const std::map<std::string, double> measured = {
      {"baseline.sw_seed_ms", median(sw_ms)},
      {"mincut.packing_ms", median(packing_ms)},
      {"mincut.packing_trees", trees / n},
      {"mincut.packing_ma_rounds", packing_rounds / n},
      {"mincut.packing_cache_hit_ratio", w2.pack_hit_ratio()},
      {"mincut.two_respect_ms_per_tree", median(two_respect_ms)},
      {"mincut.two_respect_ma_rounds_per_tree", ratio(two_respect_rounds, tree_count)},
      {"mincut.unattributed_ms", median(unattributed_ms)},
      {"minoragg.plan_cache_hit_ratio", w2.plan_hit_ratio()},
      {"util.pool_efficiency", ratio(w2_cpu_ms, kWidth * w2_wall_ms)},
      {"util.tasks_spawned", w2.tasks_spawned / static_cast<double>(work.size())},
      {"util.tasks_helped", w2.tasks_helped / static_cast<double>(work.size())},
  };
  add_layers(report, measured,
             {{"mincut.cut_oracle", "cold solves never call the host-speed cut oracle"},
              {"mincut.verify", "exact_mincut serves its answer unverified"},
              {"stream.", "no update stream on this workload"},
              {"server.", "no daemon on this workload"},
              {"fault.", "no supervisor on this workload"}});
  char line[300];
  std::snprintf(line, sizeof line,
                "exact_mincut width 1: %.3f ms median over %zu instances; unattributed "
                "(orientation, merge, task overhead; below 0 when the separate calls "
                "cost more than the fused solve): %.3f ms",
                median(exact_w1_ms), solved, median(unattributed_ms));
  report.note(line);
  report.note("per-call medians: sw seed, packing self, 2-respecting per tree; counts are means per solve");
  return report;
}

}  // namespace

Report run_cold_planar(const Options& opt) {
  const int count = opt.tiny ? 6 : 64;
  return opt.trace ? run_traced(opt, count) : run_untraced(opt, count);
}

}  // namespace perfbench
