#pragma once

// Engine — the resident core of the min-cut service.
//
// Owns the named tenant Sessions (LRU-bounded), dispatches parsed protocol
// Requests to them, and runs the serve loop that ties the framing layer
// (protocol.hpp), the weighted-fair scheduler (scheduler.hpp), and the
// solve pipeline together:
//
//   reader thread:   read_frame -> parse_request -> admission
//                      STATS/EVICT/SHUTDOWN execute inline;
//                      LOAD/MUTATE/SOLVE are queued per tenant
//   worker threads:  FairScheduler dispatch -> Engine::execute -> respond
//
// Every SOLVE runs under a fault::SolveSupervisor with the engine's round/
// wall budgets, so a pathological instance degrades through the ladder
// (answering tier reported in the response) instead of wedging a worker.
// The session's private PackingCache is plumbed into the solve AND the
// supervisor's certification replay through PackingConfig::cache, which is
// why a repeated (graph, seed) request is a cache hit instead of a repack.
//
// Observability is part of the dispatch path, not bolted on: every request
// is counted in umc_server_* metrics and traced as a server/request span;
// STATS serves the session table or a full Prometheus dump of the process
// registry.
//
// Shutdown: begin_shutdown() (SHUTDOWN frame, SIGINT/SIGTERM in mincutd)
// stops admission — later data-plane requests get a structured
// SHUTTING_DOWN rejection — while queued and in-flight work drains;
// wait_drained() blocks until the backlog is empty so the daemon can flush
// trace/metrics buffers and exit without dropping admitted work.
//
// The bottom of this header is the LOCAL engine API (load / validate)
// shared with examples/mincut_cli.cpp, so the one-shot CLI and the daemon
// ingest graphs identically; the CLI solves through the same
// fault::SolveSupervisor ladder a SOLVE runs under.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "server/session.hpp"
#include "util/error.hpp"

namespace umc::server {

struct EngineConfig {
  /// Worker width of the request scheduler (parallelism across tenants;
  /// inside a worker the solve's task graph degrades to inline — see
  /// docs/PARALLELISM.md).
  int scheduler_width = 1;
  /// Resident-session ceiling: LOAD of a new tenant beyond it evicts the
  /// least recently used idle session (soft cap: nothing idle, no evict).
  std::size_t max_sessions = 16;
  int max_queued_global = 256;
  int max_queued_per_tenant = 64;
  /// Per-solve supervisor budgets (0 = unbudgeted).
  std::int64_t solve_round_budget = 0;
  double solve_wall_budget_ms = 0.0;
  /// Packing tree cap for SOLVEs that do not pass trees=...
  int default_max_trees = 16;
  /// Certify every answer with the guard battery (tier in the response is
  /// then backed by a certificate).
  bool verify = true;
  /// Base seed of the per-tenant rng streams (SOLVE without seed=...).
  std::uint64_t rng_seed = 1;
  /// Incremental mode (the MUTATE+SOLVE fast path): LOAD builds a resident
  /// stream::IncrementalMinCut lineage per session, MUTATE journals into it,
  /// and SOLVE answers from the warm tiers (tier "warm_cache"/"warm"/"full"
  /// in the response) instead of re-solving from scratch under the
  /// supervisor. OFF by default: the classic path stays bit-identical —
  /// request seeds, supervisor tiers, cache counters and all.
  bool incremental = false;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Synchronously executes one parsed request against the session store —
  /// the worker body, and the in-process test surface. Thread-safe;
  /// concurrent calls for ONE tenant must be externally serialized (the
  /// scheduler's in-flight cap does this on the serve path).
  [[nodiscard]] Response execute(const Request& req);

  struct ServeStats {
    std::int64_t frames = 0;        // well-framed payloads read
    std::int64_t frame_errors = 0;  // stream ended on a framing violation
    std::int64_t parse_errors = 0;  // malformed request payloads (recovered)
    std::int64_t responses = 0;     // frames written
  };

  /// Blocking serve loop over a framed byte stream (the daemon's stdin/
  /// stdout, or test stringstreams). Returns after EOF — or a framing
  /// violation — once every admitted request has been answered. Reentrant
  /// serving is not supported (one connection at a time).
  ServeStats serve(std::istream& in, std::ostream& out);

  /// Stops admission (structured SHUTTING_DOWN rejections from now on) and
  /// lets the backlog drain. Thread-safe, idempotent, callable while
  /// serve() runs — the signal path of mincutd.
  void begin_shutdown();
  [[nodiscard]] bool shutting_down() const;

  /// Blocks until no request is queued or in flight (shutdown flushing).
  void wait_drained();

  [[nodiscard]] std::size_t session_count() const;
  /// Test access to the scheduler (pause/resume, stats).
  [[nodiscard]] FairScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

 private:
  Response do_load(const Request& req);
  Response do_mutate(const Request& req);
  Response do_solve(const Request& req);
  Response do_stats(const Request& req);
  Response do_evict(const Request& req);

  /// Looks up a loaded session; updates its LRU tick. Returns nullptr when
  /// the tenant has none.
  Session* touch_session_locked(const std::string& tenant);
  void evict_lru_locked();

  EngineConfig cfg_;
  FairScheduler scheduler_;
  mutable std::mutex sessions_mu_;  // map + session metadata (see session.hpp)
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::uint64_t lru_clock_ = 0;
  std::atomic<bool> shutting_down_{false};
};

// ---------------------------------------------------------------------------
// Local engine API: the load / validate dispatch shared by the daemon's
// LOAD handler and the one-shot CLI.

/// Parses an edge-list body (graph/io format). Purely the parse: see
/// validate_graph for the solvability check.
[[nodiscard]] Expected<WeightedGraph> load_graph_text(std::string_view body);
[[nodiscard]] Expected<WeightedGraph> load_graph_file(const std::string& path);

/// nullptr when `g` is solvable (connected, n >= 2); otherwise the
/// human-readable requirement it violates.
[[nodiscard]] const char* validate_graph(const WeightedGraph& g);

}  // namespace umc::server
