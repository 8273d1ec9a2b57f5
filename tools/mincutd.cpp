// mincutd — the persistent multi-tenant min-cut daemon.
//
//   $ mincutd [--width N] [--max-sessions N] [--queue N] [--tenant-queue N]
//             [--round-budget N] [--wall-budget-ms X] [--trees N] [--seed S]
//             [--no-verify] [--incremental] [--trace out.json]
//             [--metrics-out out.prom]
//
// Speaks the length-prefixed frame protocol (src/server/protocol.hpp) on
// stdin/stdout: LOAD / MUTATE / SOLVE / STATS / EVICT / SHUTDOWN. Tenant
// sessions stay resident between requests (graph, packing cache, rng
// stream), requests are scheduled with per-tenant weighted-fair queuing and
// bounded admission, and every SOLVE runs under the fault supervisor's
// degradation ladder. Diagnostics go to stderr; the wire owns stdout.
//
// Shutdown: SIGINT/SIGTERM (or a SHUTDOWN frame) stops admission — further
// data-plane requests are answered with a structured SHUTTING_DOWN error —
// drains queued and in-flight solves, flushes the trace and metrics sinks,
// and exits 0. EOF on stdin is the normal client hang-up and drains the
// same way.
//
//   --width          request workers (cross-tenant concurrency; default 1)
//   --max-sessions   resident-session LRU ceiling (default 16)
//   --queue          global admission queue depth (default 256)
//   --tenant-queue   per-tenant admission queue depth (default 64)
//   --round-budget   per-solve charged-round budget, 0 = none (default 0)
//   --wall-budget-ms per-solve wall budget, 0 = none (default 0)
//   --trees          default packing tree cap for SOLVE (default 16)
//   --seed           base seed of the per-tenant rng streams (default 1)
//   --no-verify      skip the guard battery (answers served uncertified)
//   --incremental    MUTATE+SOLVE fast path: sessions keep a warm-started
//                    incremental min-cut lineage (src/stream); SOLVE answers
//                    report tier warm_cache/warm/full plus warm_hits/
//                    warm_misses instead of the supervisor ladder tiers
//   --trace          enable the span tracer; write Chrome JSON at exit
//   --metrics-out    write the Prometheus metrics dump at exit

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/engine.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  umc::server::EngineConfig engine;
  std::string trace_path;
  std::string metrics_path;
};

bool parse_flag_int(const char* tok, long long lo, long long hi, long long& out) {
  const char* last = tok + std::strlen(tok);
  const auto [ptr, ec] = std::from_chars(tok, last, out);
  return ec == std::errc{} && ptr == last && out >= lo && out <= hi;
}

bool parse_flag_double(const char* tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok, &end);
  return end != nullptr && *end == '\0' && out >= 0.0;
}

void usage() {
  std::fprintf(stderr,
               "usage: mincutd [--width N] [--max-sessions N] [--queue N] [--tenant-queue N]\n"
               "               [--round-budget N] [--wall-budget-ms X] [--trees N] [--seed S]\n"
               "               [--no-verify] [--incremental] [--trace out.json]\n"
               "               [--metrics-out out.prom]\n");
}

/// Returns false (after printing the cause) on any malformed argv.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next_value = [&](const char*& v) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a);
        return false;
      }
      v = argv[++i];
      return true;
    };
    const auto int_value = [&](long long lo, long long hi, long long& n) {
      const char* v = nullptr;
      if (!next_value(v)) return false;
      if (!parse_flag_int(v, lo, hi, n)) {
        std::fprintf(stderr, "error: bad %s value '%s'\n", a, v);
        return false;
      }
      return true;
    };
    long long n = 0;
    if (std::strcmp(a, "--width") == 0) {
      if (!int_value(1, 64, n)) return false;
      opt.engine.scheduler_width = static_cast<int>(n);
    } else if (std::strcmp(a, "--max-sessions") == 0) {
      if (!int_value(1, 1 << 20, n)) return false;
      opt.engine.max_sessions = static_cast<std::size_t>(n);
    } else if (std::strcmp(a, "--queue") == 0) {
      if (!int_value(1, 1 << 20, n)) return false;
      opt.engine.max_queued_global = static_cast<int>(n);
    } else if (std::strcmp(a, "--tenant-queue") == 0) {
      if (!int_value(1, 1 << 20, n)) return false;
      opt.engine.max_queued_per_tenant = static_cast<int>(n);
    } else if (std::strcmp(a, "--round-budget") == 0) {
      if (!int_value(0, 1LL << 60, n)) return false;
      opt.engine.solve_round_budget = n;
    } else if (std::strcmp(a, "--wall-budget-ms") == 0) {
      const char* v = nullptr;
      double x = 0.0;
      if (!next_value(v)) return false;
      if (!parse_flag_double(v, x)) {
        std::fprintf(stderr, "error: bad %s value '%s'\n", a, v);
        return false;
      }
      opt.engine.solve_wall_budget_ms = x;
    } else if (std::strcmp(a, "--trees") == 0) {
      if (!int_value(1, 1 << 20, n)) return false;
      opt.engine.default_max_trees = static_cast<int>(n);
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!int_value(0, 1LL << 62, n)) return false;
      opt.engine.rng_seed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(a, "--no-verify") == 0) {
      opt.engine.verify = false;
    } else if (std::strcmp(a, "--incremental") == 0) {
      opt.engine.incremental = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      const char* v = nullptr;
      if (!next_value(v)) return false;
      opt.trace_path = v;
    } else if (std::strcmp(a, "--metrics-out") == 0) {
      const char* v = nullptr;
      if (!next_value(v)) return false;
      opt.metrics_path = v;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a);
      return false;
    }
  }
  return true;
}

/// The "flush trace/metrics buffers before exit" half of graceful shutdown.
void flush_observability(const Options& opt) {
  if (!opt.metrics_path.empty()) {
    std::ofstream os(opt.metrics_path);
    if (os) umc::obs::write_prometheus(os, umc::obs::MetricsRegistry::global());
  }
  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path);
    if (os) {
      const auto events = umc::obs::Tracer::global().snapshot();
      umc::obs::write_chrome_trace(os, events, umc::obs::Tracer::global().dropped());
    }
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umc;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  std::ios::sync_with_stdio(false);
  if (!opt.trace_path.empty()) obs::Tracer::global().set_enabled(true);

  server::Engine engine(opt.engine);

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked stdin read may stay blocked,
                    // so shutdown is driven from this thread, not the reader
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // The serve loop blocks reading stdin, so it runs on its own thread and
  // main stays free to react to signals even when no frames arrive.
  std::atomic<bool> done{false};
  server::Engine::ServeStats stats;
  std::thread serve_thread([&] {
    stats = engine.serve(std::cin, std::cout);
    done.store(true, std::memory_order_release);
  });

  while (!done.load(std::memory_order_acquire) && g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  if (!done.load(std::memory_order_acquire)) {
    // Signal path: stop admission (the reader answers SHUTTING_DOWN until
    // the client hangs up), drain admitted work, flush, exit without
    // waiting for EOF — the reader thread dies with the process.
    engine.begin_shutdown();
    engine.wait_drained();
    flush_observability(opt);
    std::fprintf(stderr, "mincutd: signal received; backlog drained, exiting\n");
    std::_Exit(0);
  }

  serve_thread.join();
  flush_observability(opt);
  std::fprintf(stderr,
               "mincutd: connection closed (frames=%lld responses=%lld parse_errors=%lld "
               "frame_errors=%lld, %zu session(s) resident)\n",
               static_cast<long long>(stats.frames), static_cast<long long>(stats.responses),
               static_cast<long long>(stats.parse_errors),
               static_cast<long long>(stats.frame_errors), engine.session_count());
  return 0;
}
