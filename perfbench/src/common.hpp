#pragma once

// Shared pieces of the benchmark harness: options, clocks, the op log
// every workload fills, percentile rules, the result printer, and the
// layer probes the traced mode times from outside the library.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short runs, for the harness self-check.
  bool tiny = false;
  /// Corrupt the first expected value, so the self-check can confirm a
  /// wrong answer is counted as a failure.
  bool inject_wrong_expected = false;
  /// Directory holding the mincutd and mincut_loadgen binaries.
  std::string bin_dir;
  /// Scratch directory for generated corpora (inside the checkout).
  std::string work_dir;
  /// Wall deadline of the whole run, measured from process start; a run
  /// still waiting on the daemon at this point kills it and reports.
  double deadline_s = 150.0;
  Clock::time_point process_start = Clock::now();
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double ms_since(Clock::time_point t0);

/// Process CPU time over all threads (getrusage RUSAGE_SELF), in ms.
[[nodiscard]] double process_cpu_ms();
/// Peak resident set (VmHWM) of process `pid`, 0 meaning this one, in MB;
/// 0 when procfs has no entry. getrusage's ru_maxrss would not do: Linux
/// carries it across fork and exec, so it starts at the launcher's size.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Median of `v` (average of the middle pair for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// The highest integer percentile with at least ten samples beyond it
/// (nearest rank), clamped to [50, 99]: p99 at most, p50 for sets too small
/// to leave ten samples beyond any higher percentile.
struct Tail {
  int percentile = 50;
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);

/// Everything an untraced run needs to compute the end-to-end metrics.
struct OpLog {
  std::vector<double> latency_ms;  // one entry per completed op
  double timed_wall_s = 0.0;       // wall time the ops were in flight
  double cpu_ms = 0.0;             // CPU of the working process during ops
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed first
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool deterministic = true;  // counters that must repeat did repeat

  void add(std::string name, double value, std::string unit);
  void note(std::string line);
  /// Folds the end-to-end metrics of `log` into the report.
  void add_end_to_end(const OpLog& log, double setup_s, double peak_mb, double ma_rounds);
  /// Prints the notes, a metric table, and the final one-line JSON result.
  void print() const;
};

/// Adds every per-layer metric of the benchmark, in a fixed order: values
/// from `measured`, and 0 for each metric this workload does not reach,
/// noted with the reason of the first `absent` entry whose prefix matches
/// its name.
using AbsentReasons = std::vector<std::pair<std::string, std::string>>;
void add_layers(Report& report, const std::map<std::string, double>& measured,
                const AbsentReasons& absent);

/// `num / den`, or 0 when `den` is 0.
[[nodiscard]] double ratio(double num, double den);

/// The counters of the process-wide obs registry that traced runs read as
/// deltas around the calls they measure.
struct RegistryCounters {
  double plan_hits = 0;      // umc_engine_plan_cache_hits_total
  double plan_misses = 0;    // umc_engine_plan_cache_misses_total
  double pack_hits = 0;      // umc_packing_cache_hits_total
  double pack_misses = 0;    // umc_packing_cache_misses_total
  double tasks_spawned = 0;  // umc_mincut_tasks_spawned_total
  double tasks_helped = 0;   // umc_mincut_tasks_helped_total

  [[nodiscard]] static RegistryCounters now();
  [[nodiscard]] RegistryCounters since(const RegistryCounters& before) const;
  RegistryCounters& operator+=(const RegistryCounters& delta);
  [[nodiscard]] double plan_hit_ratio() const { return ratio(plan_hits, plan_hits + plan_misses); }
  [[nodiscard]] double pack_hit_ratio() const { return ratio(pack_hits, pack_hits + pack_misses); }
};

/// Median setup time over `repeats` calls of `setup`, in seconds.
template <typename F>
double median_setup_s(int repeats, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// Layer probes: each times the public entry point of one layer, called the
// way exact_mincut calls it, on a private copy of the work.

struct LayerSample {
  double sw_seed_ms = 0.0;         // baseline::stoer_wagner(g)
  double packing_total_ms = 0.0;   // tree_packing(...), seed included
  int trees = 0;
  std::int64_t packing_rounds = 0;
  std::vector<double> two_respect_ms;           // per packed tree
  std::vector<std::int64_t> two_respect_rounds;  // per packed tree
  double exact_w1_ms = 0.0;  // exact_mincut at width 1, cache off
  umc::Weight value = 0;
};

/// Runs the layer calls of one cold solve with packing seed `seed`
/// (max_trees = `max_trees`, PackingCache off so every call computes), then
/// the whole width-1 exact_mincut for comparison.
[[nodiscard]] LayerSample probe_layers(const umc::WeightedGraph& g, std::uint64_t seed,
                                       int max_trees);

/// Solves `g` with `seed` through `cache` at width 1, then times
/// verify_mincut_result on that answer (its packing replay hits `cache`,
/// as it does behind a server session). Returns ms; `ok` reports whether
/// the verifier certified the answer.
[[nodiscard]] double time_verify(const umc::WeightedGraph& g, std::uint64_t seed, int max_trees,
                                 umc::mincut::PackingCache& cache, bool& ok);

/// `name=value` lines for the run's environment: widths, host, build.
void note_environment(Report& report, const Options& opt, int width);

// ---------------------------------------------------------------------------
// The workloads (one source file each). Each returns the end-to-end metrics
// when opt.trace is off and the per-layer metrics when it is on.

/// Thread width each workload pins (UMC_THREADS of the harness process).
[[nodiscard]] int workload_width(const std::string& workload);

[[nodiscard]] Report run_cold_planar(const Options& opt);
[[nodiscard]] Report run_stream_er(const Options& opt);
[[nodiscard]] Report run_mincutd_mixed(const Options& opt);

}  // namespace perfbench
