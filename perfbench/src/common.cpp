#include "common.hpp"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "baseline/stoer_wagner.hpp"
#include "mincut/tree_packing.hpp"
#include "mincut/two_respect.hpp"
#include "minoragg/ledger.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return 1e3 * (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
}

double peak_rss_mb(int pid) {
  std::ifstream is("/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) + "/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
    is.ignore(1 << 12, '\n');
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = static_cast<std::int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // Nearest rank: the p-th percentile is v[ceil(p n / 100) - 1], which
  // leaves n - ceil(p n / 100) >= 10 samples beyond it iff p <= 100 - 1000/n.
  t.percentile = std::clamp(static_cast<int>(std::floor(100.0 - 1000.0 / n)), 50, 99);
  const auto rank = static_cast<std::size_t>(std::ceil(t.percentile * n / 100.0));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  t.value = v[idx];
  t.beyond = t.samples - static_cast<std::int64_t>(idx) - 1;
  return t;
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::note(std::string line) { notes.push_back(std::move(line)); }

void Report::add_end_to_end(const OpLog& log, double setup_s, double peak_mb,
                            double ma_rounds) {
  attempted += log.attempted;
  failed += log.failed;
  const auto ops = static_cast<double>(log.latency_ms.size());
  const Tail tail = tail_of(log.latency_ms);
  add("setup_s", setup_s, "s");
  add("ops_per_s", log.timed_wall_s > 0.0 ? ops / log.timed_wall_s : 0.0, "1/s");
  add("op_ms_p50", median(log.latency_ms), "ms");
  add("op_ms_tail", tail.value, "ms");
  add("cpu_ms_per_op", ops > 0.0 ? log.cpu_ms / ops : 0.0, "ms");
  add("peak_rss_mb", peak_mb, "MB");
  add("ma_rounds", ma_rounds, "count");
  char line[160];
  std::snprintf(line, sizeof line, "op_ms_tail: p%d of %lld samples (%lld beyond it)",
                tail.percentile, static_cast<long long>(tail.samples),
                static_cast<long long>(tail.beyond));
  note(line);
  std::snprintf(line, sizeof line, "failed_frac: %.6g (%lld failed / %lld attempted)",
                log.attempted > 0 ? static_cast<double>(log.failed) /
                                        static_cast<double>(log.attempted)
                                  : 0.0,
                static_cast<long long>(log.failed), static_cast<long long>(log.attempted));
  note(line);
}

void Report::print() const {
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics)
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = failed == 0 && deterministic && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(std::max<std::int64_t>(attempted, 1)),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"baseline.sw_seed_ms", "ms"},
    {"mincut.packing_ms", "ms"},
    {"mincut.packing_trees", "count"},
    {"mincut.packing_ma_rounds", "count"},
    {"mincut.packing_cache_hit_ratio", "ratio"},
    {"mincut.two_respect_ms_per_tree", "ms"},
    {"mincut.two_respect_ma_rounds_per_tree", "count"},
    {"mincut.cut_oracle_ms_per_tree", "ms"},
    {"mincut.verify_ms", "ms"},
    {"mincut.unattributed_ms", "ms"},
    {"minoragg.plan_cache_hit_ratio", "ratio"},
    {"util.pool_efficiency", "ratio"},
    {"util.tasks_spawned", "count"},
    {"util.tasks_helped", "count"},
    {"stream.apply_ms", "ms"},
    {"stream.warm_solve_ms", "ms"},
    {"stream.full_solve_ms", "ms"},
    {"stream.warm_hit_ratio", "ratio"},
    {"stream.trees_skipped_ratio", "ratio"},
    {"stream.trees_repaired", "count"},
    {"stream.fallbacks", "count"},
    {"stream.full_solves", "count"},
    {"server.solve_exec_ms", "ms"},
    {"server.load_exec_ms", "ms"},
    {"server.mutate_exec_ms", "ms"},
    {"server.queue_ms_p50", "ms"},
    {"server.queue_ms_tail", "ms"},
    {"server.worker_busy_frac", "ratio"},
    {"server.degraded", "count"},
    {"server.rejected", "count"},
    {"fault.supervisor_retries", "count"},
    {"fault.tier_falls", "count"},
};

}  // namespace

void add_layers(Report& report, const std::map<std::string, double>& measured,
                const AbsentReasons& absent) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = measured.find(m.name);
    if (it != measured.end()) {
      report.add(m.name, it->second, m.unit);
      continue;
    }
    std::string why = "not on this workload's path";
    for (const auto& [prefix, reason] : absent)
      if (std::string_view(m.name).starts_with(prefix)) {
        why = reason;
        break;
      }
    report.add(m.name, 0.0, m.unit);
    report.note(std::string(m.name) + ": absent, reported as 0 (" + why + ")");
  }
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

RegistryCounters RegistryCounters::now() {
  const auto read = [](std::string_view name) {
    return static_cast<double>(umc::obs::MetricsRegistry::global().counter(name).value());
  };
  return {read("umc_engine_plan_cache_hits_total"),   read("umc_engine_plan_cache_misses_total"),
          read("umc_packing_cache_hits_total"),       read("umc_packing_cache_misses_total"),
          read("umc_mincut_tasks_spawned_total"),     read("umc_mincut_tasks_helped_total")};
}

RegistryCounters RegistryCounters::since(const RegistryCounters& before) const {
  return {plan_hits - before.plan_hits,         plan_misses - before.plan_misses,
          pack_hits - before.pack_hits,         pack_misses - before.pack_misses,
          tasks_spawned - before.tasks_spawned, tasks_helped - before.tasks_helped};
}

RegistryCounters& RegistryCounters::operator+=(const RegistryCounters& delta) {
  plan_hits += delta.plan_hits;
  plan_misses += delta.plan_misses;
  pack_hits += delta.pack_hits;
  pack_misses += delta.pack_misses;
  tasks_spawned += delta.tasks_spawned;
  tasks_helped += delta.tasks_helped;
  return *this;
}

LayerSample probe_layers(const umc::WeightedGraph& g, std::uint64_t seed, int max_trees) {
  using namespace umc;
  LayerSample s;
  mincut::PackingConfig cfg;
  cfg.max_trees = max_trees;
  cfg.use_cache = false;

  Clock::time_point t0 = Clock::now();
  s.value = baseline::stoer_wagner(g).value;
  s.sw_seed_ms = ms_since(t0);

  Rng rng(seed);
  minoragg::Ledger pack_ledger;
  t0 = Clock::now();
  const mincut::TreePacking packing = mincut::tree_packing(g, rng, pack_ledger, cfg);
  s.packing_total_ms = ms_since(t0);
  s.trees = static_cast<int>(packing.trees.size());
  s.packing_rounds = pack_ledger.rounds();

  for (const std::vector<EdgeId>& tree : packing.trees) {
    minoragg::Ledger ledger;
    t0 = Clock::now();
    (void)mincut::two_respecting_mincut(g, tree, /*root=*/0, ledger);
    s.two_respect_ms.push_back(ms_since(t0));
    s.two_respect_rounds.push_back(ledger.rounds());
  }

  Rng exact_rng(seed);
  minoragg::Ledger exact_ledger;
  t0 = Clock::now();
  (void)mincut::exact_mincut(g, exact_rng, exact_ledger, cfg, /*num_threads=*/1);
  s.exact_w1_ms = ms_since(t0);
  return s;
}

double time_verify(const umc::WeightedGraph& g, std::uint64_t seed, int max_trees,
                   umc::mincut::PackingCache& cache, bool& ok) {
  using namespace umc;
  mincut::GuardConfig guard;
  guard.packing.max_trees = max_trees;
  guard.packing.cache = &cache;
  Rng rng(seed);
  minoragg::Ledger ledger;
  const mincut::ExactMinCutResult answer =
      mincut::exact_mincut(g, rng, ledger, guard.packing, /*num_threads=*/1);
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::string> failures = mincut::verify_mincut_result(g, seed, guard, answer);
  const double ms = ms_since(t0);
  ok = failures.empty();
  return ms;
}

namespace {

/// CPU brand string via cpuid (no file reads outside the checkout).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

void note_environment(Report& report, const Options& opt, int width) {
  const char* env_threads = std::getenv("UMC_THREADS");
  report.note("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
              " width=" + std::to_string(width) +
              " UMC_THREADS=" + (env_threads == nullptr ? "" : env_threads) +
              " trace=" + (opt.trace ? "1" : "0"));
  report.note("nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + " cpu=" + cpu_model() +
              " compiler=" PERFBENCH_COMPILER " build_type=" PERFBENCH_BUILD_TYPE
              " git_sha=" PERFBENCH_GIT_SHA);
}

}  // namespace perfbench
