// perfbench — the benchmark harness behind perfbench/run.py.
//
//   perfbench --workload cold_planar|stream_er|mincutd_mixed --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//             [--tiny] [--inject-wrong-expected] [--deadline S]
//
// Prints notes (environment, tail percentile, absent layers), a metric
// table, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (its answers may still be wrong; see
// "correct"), 1 when it could not run, 2 on bad arguments.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && out > 0.0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--inject-wrong-expected") {
      opt.inject_wrong_expected = true;
    } else if (!has_value) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return false;
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      const char* v = argv[++i];
      const char* last = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, last, opt.seed);
      if (ec != std::errc{} || ptr != last) return false;
    } else if (a == "--seconds") {
      if (!parse_number(argv[++i], opt.seconds)) return false;
    } else if (a == "--deadline") {
      if (!parse_number(argv[++i], opt.deadline_s)) return false;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--bin-dir") {
      opt.bin_dir = argv[++i];
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace

namespace perfbench {

int workload_width(const std::string& workload) {
  // mincutd_mixed: the harness solves its mirrors at width 1; the daemon
  // itself runs at --width 2 (see mincutd_mixed.cpp).
  return workload == "cold_planar" ? 2 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_planar|stream_er|mincutd_mixed --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR [--tiny] "
                 "[--inject-wrong-expected] [--deadline S]\n");
    return 2;
  }
  using Runner = perfbench::Report (*)(const Options&);
  Runner run = nullptr;
  if (opt.workload == "cold_planar") run = perfbench::run_cold_planar;
  if (opt.workload == "stream_er") run = perfbench::run_stream_er;
  if (opt.workload == "mincutd_mixed") run = perfbench::run_mincutd_mixed;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // Pin the library's ambient width before anything reads it (the knob is
  // read once per process); every solve also passes its width explicitly.
  const std::string width = std::to_string(perfbench::workload_width(opt.workload));
  setenv("UMC_THREADS", width.c_str(), 1);
  run(opt).print();
  return 0;
}
