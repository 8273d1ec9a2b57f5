#include "server/engine.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <utility>

#include "fault/supervisor.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "obs/export.hpp"
#include "obs/ledger_bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/math.hpp"

namespace umc::server {

namespace {

// ---------------------------------------------------------------------------
// umc_server_* metric families. References are cached in function-local
// statics so the registry lookup happens once per process.

obs::Counter& requests_counter(Op op) {
  static const auto make = [](const char* op_label) {
    return &obs::MetricsRegistry::global().counter(
        "umc_server_requests_total", {{"op", op_label}},
        "Requests executed by the min-cut service, by op.");
  };
  static obs::Counter* counters[] = {make("load"),  make("mutate"), make("solve"),
                                     make("stats"), make("evict"),  make("shutdown")};
  return *counters[static_cast<int>(op)];
}

obs::Counter& errors_counter(ErrCode code) {
  // Error paths are cold; the per-call registry lookup is fine.
  return obs::MetricsRegistry::global().counter(
      "umc_server_errors_total", {{"code", to_string(code)}},
      "Structured error responses served, by protocol error code.");
}

obs::Gauge& sessions_gauge() {
  static obs::Gauge* g = &obs::MetricsRegistry::global().gauge(
      "umc_server_sessions", {}, "Resident tenant sessions.");
  return *g;
}

obs::Counter& evictions_counter() {
  static obs::Counter* c = &obs::MetricsRegistry::global().counter(
      "umc_server_evictions_total", {},
      "Sessions evicted (EVICT requests and LRU capacity evictions).");
  return *c;
}

obs::Counter& degraded_counter() {
  static obs::Counter* c = &obs::MetricsRegistry::global().counter(
      "umc_server_solve_degraded_total", {},
      "SOLVEs answered below the exact tiers of the degradation ladder.");
  return *c;
}

/// Microseconds, not milliseconds: warm stream solves finish well under a
/// millisecond, which whole-ms observations would all round to zero.
obs::Histogram& solve_wall_histogram() {
  static obs::Histogram* h = &obs::MetricsRegistry::global().histogram(
      "umc_server_solve_wall_us",
      {100, 250, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000,
       5000000},
      {}, "Wall-clock microseconds per SOLVE (supervisor total).");
  return *h;
}

void observe_solve_wall(double wall_ms) {
  solve_wall_histogram().observe(static_cast<std::int64_t>(std::llround(wall_ms * 1000.0)));
}

obs::Counter& frame_errors_counter() {
  static obs::Counter* c = &obs::MetricsRegistry::global().counter(
      "umc_server_frame_errors_total", {},
      "Connections ended on a framing violation (truncated or oversized frame).");
  return *c;
}

/// FNV-1a 64 of the tenant name: the per-tenant rng stream key must be a
/// pure function of the name (not of map iteration or arrival order).
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// err_response + the error counter, so every structured failure is visible
/// in the metrics surface.
Response counted_error(ErrCode code, std::int64_t id, std::string message) {
  errors_counter(code).inc();
  return err_response(code, id, std::move(message));
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      scheduler_(SchedulerConfig{cfg.scheduler_width, cfg.max_queued_global,
                                 cfg.max_queued_per_tenant, /*start_paused=*/false}) {
  UMC_ASSERT(cfg_.max_sessions >= 1);
  sessions_gauge().set(0);
}

Engine::~Engine() = default;

Session* Engine::touch_session_locked(const std::string& tenant) {
  const auto it = sessions_.find(tenant);
  if (it == sessions_.end() || !it->second->loaded) return nullptr;
  it->second->lru_tick = ++lru_clock_;
  return it->second.get();
}

void Engine::evict_lru_locked() {
  // Only an idle session may go: a tenant with queued or in-flight work
  // holds a raw Session* inside its jobs (the scheduler's one-job-in-flight
  // rule plus this guard is what makes that pointer safe). Nothing idle ->
  // soft cap.
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (scheduler_.pending(it->first) > 0) continue;
    if (victim == sessions_.end() || it->second->lru_tick < victim->second->lru_tick)
      victim = it;
  }
  if (victim == sessions_.end()) return;
  sessions_.erase(victim);
  evictions_counter().inc();
  sessions_gauge().set(static_cast<std::int64_t>(sessions_.size()));
}

Response Engine::execute(const Request& req) {
  UMC_OBS_SPAN_VAR_L(span, "server/request", "server", static_cast<std::int64_t>(req.op));
  span.arg("id", req.id);
  requests_counter(req.op).inc();
  switch (req.op) {
    case Op::kLoad: return do_load(req);
    case Op::kMutate: return do_mutate(req);
    case Op::kSolve: return do_solve(req);
    case Op::kStats: return do_stats(req);
    case Op::kEvict: return do_evict(req);
    case Op::kShutdown: {
      begin_shutdown();
      Response r = ok_response(Op::kShutdown, req.id);
      r.fields["draining"] = std::to_string(scheduler_.queued_total());
      return r;
    }
  }
  return counted_error(ErrCode::kInternal, req.id, "unhandled op");
}

Response Engine::do_load(const Request& req) {
  Expected<WeightedGraph> parsed = load_graph_text(req.body);
  if (!parsed) return counted_error(ErrCode::kBadGraph, req.id, parsed.error().to_string());
  WeightedGraph g = std::move(parsed.value());
  if (const char* why = validate_graph(g))
    return counted_error(ErrCode::kBadGraph, req.id, why);
  // Build the adjacency view before any solve touches the graph.
  (void)g.csr();

  scheduler_.set_weight(req.tenant, req.weight);
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(req.tenant);
  if (it == sessions_.end()) {
    if (sessions_.size() >= cfg_.max_sessions) evict_lru_locked();
    const std::uint64_t seed = mix64(cfg_.rng_seed ^ fnv1a64(req.tenant));
    it = sessions_.emplace(req.tenant, std::make_unique<Session>(req.tenant, seed)).first;
  }
  Session& s = *it->second;
  s.graph = std::move(g);
  s.loaded = true;
  s.weight = req.weight;
  ++s.loads;
  s.lru_tick = ++lru_clock_;
  if (cfg_.incremental) {
    // Fresh lineage per LOAD: the warm state must descend from THIS graph.
    // The session cache hosts both the plain and the delta-aware keyspace,
    // so a tenant re-loading an identical graph re-adopts its old packing
    // through the delta cache instead of re-packing cold.
    stream::StreamConfig sc;
    sc.seed = mix64(cfg_.rng_seed ^ fnv1a64(req.tenant));
    sc.num_threads = 1;  // the pool hosts the request workers; see scheduler.hpp
    sc.packing.max_trees = cfg_.default_max_trees;
    sc.packing.cache = &s.cache;
    sc.verify_full = cfg_.verify;
    s.stream = std::make_unique<stream::IncrementalMinCut>(s.graph, sc);
  } else {
    s.stream.reset();
  }
  sessions_gauge().set(static_cast<std::int64_t>(sessions_.size()));

  Response r = ok_response(Op::kLoad, req.id);
  r.fields["n"] = std::to_string(s.graph.n());
  r.fields["m"] = std::to_string(s.graph.m());
  r.fields["weight"] = std::to_string(s.weight);
  if (cfg_.incremental) r.fields["incremental"] = "1";
  return r;
}

Response Engine::do_mutate(const Request& req) {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  Session* s = touch_session_locked(req.tenant);
  if (s == nullptr)
    return counted_error(ErrCode::kNoSession, req.id,
                         "tenant '" + req.tenant + "' has no loaded graph");
  if (req.edge >= s->graph.m())
    return counted_error(ErrCode::kBadMutation, req.id,
                         "edge id " + std::to_string(req.edge) + " out of range (m=" +
                             std::to_string(s->graph.m()) + ")");
  if (s->stream != nullptr) {
    // Incremental fast path: journal the reweight into the lineage (slot id
    // == base edge id — the wire protocol never inserts or deletes). The
    // stream validates and mutates its materialized graph in place; the
    // session copy is kept in step for STATS and eviction-reload symmetry.
    stream::UpdateBatch batch;
    batch.reweight(req.edge, req.new_weight);
    const Expected<stream::BatchDelta> applied = s->stream->apply(batch);
    if (!applied.has_value())
      return counted_error(ErrCode::kBadMutation, req.id, applied.error().to_string());
  }
  s->graph.set_weight(req.edge, req.new_weight);
  ++s->mutates;

  Response r = ok_response(Op::kMutate, req.id);
  r.fields["edge"] = std::to_string(req.edge);
  r.fields["w"] = std::to_string(req.new_weight);
  return r;
}

Response Engine::do_solve(const Request& req) {
  Session* s = nullptr;
  std::uint64_t seed = 0;
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    s = touch_session_locked(req.tenant);
    if (s == nullptr)
      return counted_error(ErrCode::kNoSession, req.id,
                           "tenant '" + req.tenant + "' has no loaded graph");
    seed = req.has_seed ? req.seed : s->rng.next_u64();
  }

  // The solve runs without the session mutex: the scheduler's per-tenant
  // in-flight cap keeps this session exclusive, and the eviction guard
  // (pending > 0) keeps `s` alive.
  if (s->stream != nullptr) {
    // Incremental fast path: the lineage answers from the cheapest
    // trustworthy tier (delta-cache replay, in-place repair, or full
    // re-pack). Deterministic given the lineage seed + update history, so
    // request-level seeds are deliberately ignored.
    const auto t0 = std::chrono::steady_clock::now();
    const stream::StreamSolveReport srep = s->stream->solve();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    observe_solve_wall(wall_ms);
    obs::bridge_ledger(obs::MetricsRegistry::global(), srep.ledger, "server");

    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t warm_hits = 0;
    std::int64_t warm_misses = 0;
    {
      const std::lock_guard<std::mutex> lock(sessions_mu_);
      ++s->solves;
      s->lru_tick = ++lru_clock_;
      hits = s->cache.hits();
      misses = s->cache.misses();
      warm_hits = s->stream->counters().warm_hits;
      warm_misses = s->stream->counters().warm_misses;
    }

    Response r = ok_response(Op::kSolve, req.id);
    r.fields["value"] = std::to_string(srep.value);
    r.fields["tier"] = std::string(stream::to_string(srep.tier));
    r.fields["certified"] = srep.certified ? "1" : "0";
    r.fields["rounds"] = std::to_string(srep.ledger.rounds());
    r.fields["retries"] = std::to_string(srep.retries);
    r.fields["seed"] = std::to_string(s->stream->config().seed);
    r.fields["cache_hits"] = std::to_string(hits);
    r.fields["cache_misses"] = std::to_string(misses);
    r.fields["warm_hits"] = std::to_string(warm_hits);
    r.fields["warm_misses"] = std::to_string(warm_misses);
    r.fields["trees"] = std::to_string(srep.trees);
    return r;
  }
  fault::SupervisorConfig scfg;
  scfg.seed = seed;
  scfg.num_threads = 1;  // the pool hosts the request workers; see scheduler.hpp
  scfg.round_budget = cfg_.solve_round_budget;
  scfg.wall_budget_ms = cfg_.solve_wall_budget_ms;
  scfg.verify = cfg_.verify;
  scfg.packing.max_trees = req.max_trees != 0 ? req.max_trees : cfg_.default_max_trees;
  scfg.packing.cache = &s->cache;
  const fault::SolveReport rep = fault::SolveSupervisor(scfg).solve(s->graph);

  observe_solve_wall(rep.wall_ms);
  if (rep.degraded()) degraded_counter().inc();
  obs::bridge_ledger(obs::MetricsRegistry::global(), rep.ledger, "server");

  std::int64_t hits = 0;
  std::int64_t misses = 0;
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    ++s->solves;
    s->lru_tick = ++lru_clock_;
    hits = s->cache.hits();
    misses = s->cache.misses();
  }

  Response r = ok_response(Op::kSolve, req.id);
  r.fields["value"] = std::to_string(rep.value);
  r.fields["tier"] = std::string(fault::to_string(rep.tier));
  r.fields["certified"] = rep.certified ? "1" : "0";
  r.fields["rounds"] = std::to_string(rep.rounds);
  r.fields["retries"] = std::to_string(rep.retries);
  r.fields["seed"] = std::to_string(seed);
  r.fields["cache_hits"] = std::to_string(hits);
  r.fields["cache_misses"] = std::to_string(misses);
  if (rep.tier <= fault::SolveTier::kCheckpointReplay)
    r.fields["trees"] = std::to_string(rep.exact.num_trees);
  return r;
}

Response Engine::do_stats(const Request& req) {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  const FairScheduler::Stats sched = scheduler_.stats();

  Response r = ok_response(Op::kStats, req.id);
  r.fields["sessions"] = std::to_string(sessions_.size());
  r.fields["queued"] = std::to_string(scheduler_.queued_total());
  r.fields["admitted"] = std::to_string(sched.admitted);
  r.fields["dispatched"] = std::to_string(sched.dispatched);
  r.fields["rejected"] =
      std::to_string(sched.rejected_queue_full + sched.rejected_tenant_overload +
                     sched.rejected_shutting_down);
  std::ostringstream os;
  if (req.stats_prometheus) {
    // Per-tenant mutation/warm-start gauges are sampled into the registry
    // at dump time (the registry owns no per-tenant state of its own).
    for (const auto& [name, s] : sessions_) {
      obs::MetricsRegistry::global()
          .gauge("umc_server_tenant_mutates", {{"tenant", name}},
                 "Lifetime MUTATE count of the resident session.")
          .set(s->mutates);
      obs::MetricsRegistry::global()
          .gauge("umc_server_tenant_warm_start_hits", {{"tenant", name}},
                 "Incremental-mode solves answered by a warm tier.")
          .set(s->stream != nullptr ? s->stream->counters().warm_hits : 0);
      obs::MetricsRegistry::global()
          .gauge("umc_server_tenant_warm_start_misses", {{"tenant", name}},
                 "Incremental-mode solves that re-packed from scratch.")
          .set(s->stream != nullptr ? s->stream->counters().warm_misses : 0);
    }
    obs::write_prometheus(os, obs::MetricsRegistry::global());
  } else {
    for (const auto& [name, s] : sessions_) {
      os << name << " n=" << s->graph.n() << " m=" << s->graph.m() << " weight=" << s->weight
         << " loads=" << s->loads << " mutates=" << s->mutates << " solves=" << s->solves
         << " cache_hits=" << s->cache.hits() << " cache_misses=" << s->cache.misses();
      if (s->stream != nullptr)
        os << " warm_hits=" << s->stream->counters().warm_hits
           << " warm_misses=" << s->stream->counters().warm_misses;
      os << '\n';
    }
  }
  r.body = os.str();
  return r;
}

Response Engine::do_evict(const Request& req) {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(req.tenant);
  if (it == sessions_.end())
    return counted_error(ErrCode::kNoSession, req.id,
                         "tenant '" + req.tenant + "' has no session");
  if (scheduler_.pending(req.tenant) > 0)
    return counted_error(ErrCode::kTenantBusy, req.id,
                         "tenant '" + req.tenant + "' has queued or in-flight requests");
  sessions_.erase(it);
  evictions_counter().inc();
  sessions_gauge().set(static_cast<std::int64_t>(sessions_.size()));

  Response r = ok_response(Op::kEvict, req.id);
  r.fields["sessions"] = std::to_string(sessions_.size());
  return r;
}

Engine::ServeStats Engine::serve(std::istream& in, std::ostream& out) {
  ServeStats st;
  std::mutex out_mu;
  // Workers and the reader interleave on one reply stream; the frame write
  // is the atomic unit.
  // std::cin arrives tied to std::cout: every read would flush `out` from
  // the reader thread OUTSIDE out_mu, racing the workers' locked writes on
  // the same streambuf (observed as duplicated reply frames). Untie for the
  // serve lifetime; all flushing happens under the lock below.
  std::ostream* const prev_tie = in.tie(nullptr);
  const auto respond = [&](const Response& resp) {
    const std::lock_guard<std::mutex> lock(out_mu);
    write_frame(out, resp.serialize());
    ++st.responses;
  };

  std::thread dispatcher([this] { scheduler_.run(); });
  std::string payload;
  Error frame_err{};
  for (;;) {
    const FrameStatus fs = read_frame(in, payload, frame_err);
    if (fs == FrameStatus::kEof) break;
    if (fs == FrameStatus::kError) {
      // Framing violations are not resynchronizable: answer once, end the
      // connection (the daemon itself stays up).
      ++st.frame_errors;
      frame_errors_counter().inc();
      respond(counted_error(ErrCode::kBadFrame, 0, frame_err.to_string()));
      break;
    }
    ++st.frames;

    Expected<Request> parsed = parse_request(payload);
    if (!parsed) {
      // Payload-level garbage is recoverable: the stream stays framed.
      ++st.parse_errors;
      respond(counted_error(ErrCode::kBadCommand, 0, parsed.error().to_string()));
      continue;
    }
    auto req = std::make_shared<Request>(std::move(parsed.value()));
    if (req->op == Op::kStats || req->op == Op::kEvict || req->op == Op::kShutdown) {
      // Control plane: answered inline, never queued behind solves.
      respond(execute(*req));
      continue;
    }
    const std::int64_t id = req->id;
    // Pull the key out before std::move(req): function-argument evaluation
    // order is unspecified, so `req->tenant` inline would race the capture.
    const std::string tenant = req->tenant;
    const Admit verdict = scheduler_.submit(tenant, [this, req = std::move(req), &respond] {
      respond(execute(*req));
    });
    switch (verdict) {
      case Admit::kAdmitted:
        break;
      case Admit::kQueueFull:
        respond(counted_error(ErrCode::kQueueFull, id, "global request queue is full"));
        break;
      case Admit::kTenantOverload:
        respond(counted_error(ErrCode::kTenantOverload, id,
                              "per-tenant request queue is full"));
        break;
      case Admit::kShuttingDown:
        respond(counted_error(ErrCode::kShuttingDown, id, "daemon is shutting down"));
        break;
    }
  }
  scheduler_.close();
  dispatcher.join();
  in.tie(prev_tie);
  return st;
}

void Engine::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_relaxed);
  scheduler_.close();
}

bool Engine::shutting_down() const {
  return shutting_down_.load(std::memory_order_relaxed);
}

void Engine::wait_drained() { scheduler_.wait_idle(); }

std::size_t Engine::session_count() const {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// Local engine API.

Expected<WeightedGraph> load_graph_text(std::string_view body) {
  std::istringstream is{std::string(body)};
  return try_read_edge_list(is);
}

Expected<WeightedGraph> load_graph_file(const std::string& path) {
  return try_read_edge_list_file(path);
}

const char* validate_graph(const WeightedGraph& g) {
  if (g.n() < 2 || !is_connected(g)) return "the graph must be connected with >= 2 nodes";
  return nullptr;
}

}  // namespace umc::server
