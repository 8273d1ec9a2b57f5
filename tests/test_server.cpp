// Tests for the min-cut service (src/server): protocol framing and parsing
// as the untrusted path (truncated / oversized / corrupt frames surface
// Expected errors and never kill the engine), the weighted-fair scheduler's
// starvation bound and admission control, session lifecycle (LRU eviction
// keeps counters consistent), graceful-shutdown rejections, and the serve
// loop end to end over in-memory streams. Registered twice in CTest: plain,
// and as test_server_threads8 with the pool forced to 8 workers (the TSAN /
// ASAN job for the concurrent request plane).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "server/engine.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "util/rng.hpp"

namespace umc::server {
namespace {

// ---- wire helpers ----------------------------------------------------------

/// Length-prefixes one payload the way write_frame does.
std::string frame(std::string_view payload) {
  std::ostringstream os;
  write_frame(os, payload);
  return os.str();
}

/// Splits a serve() output stream back into response payloads.
std::vector<Response> read_responses(const std::string& wire) {
  std::istringstream is(wire);
  std::vector<Response> out;
  std::string payload;
  Error err{};
  while (read_frame(is, payload, err) == FrameStatus::kFrame) {
    Expected<Response> parsed = parse_response(payload);
    EXPECT_TRUE(parsed.has_value()) << payload;
    if (parsed) out.push_back(std::move(parsed.value()));
  }
  return out;
}

/// Responses keyed by correlation id (cross-tenant completion order is
/// unspecified).
std::map<std::int64_t, Response> by_id(const std::string& wire) {
  std::map<std::int64_t, Response> out;
  for (Response& r : read_responses(wire)) out.emplace(r.id, std::move(r));
  return out;
}

/// A small connected weighted graph as LOAD body text.
std::string small_graph_body() {
  return "4\n0 1 3\n1 2 1\n2 3 5\n0 3 2\n1 3 4\n";
}

Weight oracle_of_body(const std::string& body) {
  std::istringstream is(body);
  Expected<WeightedGraph> g = try_read_edge_list(is);
  EXPECT_TRUE(g.has_value());
  return baseline::stoer_wagner(g.value()).value;
}

// ---- protocol: parsing is the untrusted path -------------------------------

TEST(ServerProtocol, RequestRoundTripsThroughSerialize) {
  Request req;
  req.op = Op::kSolve;
  req.tenant = "alice";
  req.id = 42;
  req.has_seed = true;
  req.seed = 777;
  req.max_trees = 9;
  const Expected<Request> back = parse_request(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().op, Op::kSolve);
  EXPECT_EQ(back.value().tenant, "alice");
  EXPECT_EQ(back.value().id, 42);
  EXPECT_TRUE(back.value().has_seed);
  EXPECT_EQ(back.value().seed, 777u);
  EXPECT_EQ(back.value().max_trees, 9);
}

TEST(ServerProtocol, MalformedRequestsAreErrorsNotCrashes) {
  const char* bad[] = {
      "",                          // empty payload
      "FROBNICATE t0\n",           // unknown op
      "LOAD\n",                    // missing tenant
      "LOAD bad tenant!\n",        // invalid tenant charset
      "MUTATE t0\n",               // missing edge and weight
      "MUTATE t0 x y\n",           // non-numeric edge
      "SOLVE t0 seed=\n",          // empty value
      "SOLVE t0 trees=-3\n",       // out of range
      "EVICT\n",                   // missing tenant
      "STATS prom extra junk\n",   // trailing garbage
  };
  for (const char* payload : bad) {
    const Expected<Request> parsed = parse_request(payload);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << payload;
  }
}

TEST(ServerProtocol, FrameRoundTripAndCleanEof) {
  std::stringstream wire;
  write_frame(wire, "SOLVE t0 id=1\n");
  write_frame(wire, "");
  std::string payload;
  Error err{};
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kFrame);
  EXPECT_EQ(payload, "SOLVE t0 id=1\n");
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kEof);
}

TEST(ServerProtocol, TruncatedLengthIsFramingError) {
  std::istringstream wire(std::string("\x05\x00", 2));  // half a length prefix
  std::string payload;
  Error err{};
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kError);
}

TEST(ServerProtocol, TruncatedPayloadIsFramingError) {
  std::string bytes = frame("SOLVE t0\n");
  bytes.resize(bytes.size() - 3);  // short read inside the payload
  std::istringstream wire(bytes);
  std::string payload;
  Error err{};
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kError);
}

TEST(ServerProtocol, OversizedFrameIsFramingErrorNotAllocation) {
  // 0xFFFFFFFF length prefix: must be rejected on the prefix alone.
  std::istringstream wire(std::string("\xff\xff\xff\xff", 4));
  std::string payload;
  Error err{};
  EXPECT_EQ(read_frame(wire, payload, err), FrameStatus::kError);
}

// ---- scheduler: fairness and admission -------------------------------------

TEST(FairScheduler, FloodingTenantCannotStarveAnother) {
  SchedulerConfig cfg;
  cfg.width = 1;  // deterministic dispatch order
  cfg.max_queued_global = 1024;
  cfg.max_queued_per_tenant = 512;
  cfg.start_paused = true;
  FairScheduler sched(cfg);

  std::vector<std::string> order;
  const auto job = [&order](const char* who) {
    return [&order, who] { order.emplace_back(who); };
  };
  // The flood lands first, the victim's handful afterwards.
  for (int i = 0; i < 40; ++i) ASSERT_EQ(sched.submit("flood", job("flood")), Admit::kAdmitted);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(sched.submit("victim", job("victim")), Admit::kAdmitted);

  sched.close();  // paused backlog still drains
  sched.run();

  ASSERT_EQ(order.size(), 45u);
  // Stride scheduling with equal weights alternates, so the victim's k-th
  // job is dispatched by position 2k+2 — a bounded latency ratio, not
  // FIFO-behind-the-flood.
  int seen_victim = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    if (order[pos] != "victim") continue;
    ++seen_victim;
    EXPECT_LE(pos, static_cast<std::size_t>(2 * seen_victim))
        << "victim job " << seen_victim << " starved until dispatch " << pos;
  }
  EXPECT_EQ(seen_victim, 5);
}

TEST(FairScheduler, WeightsScaleServiceRate) {
  SchedulerConfig cfg;
  cfg.width = 1;
  cfg.start_paused = true;
  FairScheduler sched(cfg);
  sched.set_weight("heavy", 2);
  sched.set_weight("light", 1);

  // 2:1 backlog so the weight-2 tenant never runs dry mid-drain (which
  // would hand the tail to the light tenant and void the ratio).
  std::vector<std::string> order;
  for (int i = 0; i < 24; ++i)
    ASSERT_EQ(sched.submit("heavy", [&order] { order.emplace_back("heavy"); }),
              Admit::kAdmitted);
  for (int i = 0; i < 12; ++i)
    ASSERT_EQ(sched.submit("light", [&order] { order.emplace_back("light"); }),
              Admit::kAdmitted);
  sched.close();
  sched.run();

  // In any dispatch prefix the weight-2 tenant has ~2x the weight-1
  // tenant's completions (within one stride quantum of slack).
  int heavy = 0;
  int light = 0;
  for (const std::string& who : order) {
    ++(who == "heavy" ? heavy : light);
    EXPECT_LE(light, heavy / 2 + 2) << "after " << (heavy + light) << " dispatches";
  }
}

TEST(FairScheduler, AdmissionControlRejectsStructurally) {
  SchedulerConfig cfg;
  cfg.width = 1;
  cfg.max_queued_global = 4;
  cfg.max_queued_per_tenant = 2;
  cfg.start_paused = true;
  FairScheduler sched(cfg);

  EXPECT_EQ(sched.submit("a", [] {}), Admit::kAdmitted);
  EXPECT_EQ(sched.submit("a", [] {}), Admit::kAdmitted);
  EXPECT_EQ(sched.submit("a", [] {}), Admit::kTenantOverload);  // per-tenant cap
  EXPECT_EQ(sched.submit("b", [] {}), Admit::kAdmitted);
  EXPECT_EQ(sched.submit("c", [] {}), Admit::kAdmitted);
  EXPECT_EQ(sched.submit("d", [] {}), Admit::kQueueFull);  // global cap

  sched.close();
  EXPECT_EQ(sched.submit("a", [] {}), Admit::kShuttingDown);
  sched.run();

  const FairScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.dispatched, 4);
  EXPECT_EQ(stats.rejected_tenant_overload, 1);
  EXPECT_EQ(stats.rejected_queue_full, 1);
  EXPECT_EQ(stats.rejected_shutting_down, 1);
}

TEST(FairScheduler, OneTenantNeverHasTwoJobsInFlight) {
  // Engine jobs hold a raw Session* that is only safe while one tenant's
  // jobs run one at a time; four workers must still serialize them in
  // submission order.
  SchedulerConfig cfg;
  cfg.width = 4;
  cfg.start_paused = true;
  FairScheduler sched(cfg);
  constexpr int kJobs = 32;
  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(sched.submit("solo",
                           [&, i] {
                             const int now = inflight.fetch_add(1) + 1;
                             int seen = peak.load();
                             while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                             }
                             std::this_thread::sleep_for(std::chrono::microseconds(200));
                             {
                               const std::lock_guard<std::mutex> lock(mu);
                               order.push_back(i);
                             }
                             inflight.fetch_sub(1);
                           }),
              Admit::kAdmitted);
  }
  sched.close();  // paused backlog still drains
  sched.run();

  EXPECT_EQ(peak.load(), 1);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(FairScheduler, CloseReleasesWorkersParkedBehindAnInflightCap) {
  // Two idle workers park while tenant x's first job holds its in-flight
  // cap and its second job waits. Once close() has landed and that second
  // job is dispatched, every worker must leave run() — not just the one the
  // first job's completion happened to wake.
  SchedulerConfig cfg;
  cfg.width = 3;
  FairScheduler sched(cfg);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_EQ(sched.submit("x",
                         [&] {
                           std::unique_lock<std::mutex> lock(mu);
                           cv.wait(lock, [&] { return release; });
                         }),
            Admit::kAdmitted);
  ASSERT_EQ(sched.submit("x", [] {}), Admit::kAdmitted);

  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    sched.run();
    done.set_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // idle workers park
  sched.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // ...and re-park
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  const bool drained =
      finished.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!drained) sched.resume();  // wake the parked worker so the test fails instead of hanging
  runner.join();
  EXPECT_TRUE(drained) << "a worker stayed parked after close() drained the queue";
}

// ---- engine: session lifecycle ---------------------------------------------

TEST(Engine, LoadMutateSolveLifecycle) {
  Engine engine;
  Request load;
  load.op = Op::kLoad;
  load.tenant = "t0";
  load.id = 1;
  load.body = small_graph_body();
  const Response r1 = engine.execute(load);
  ASSERT_TRUE(r1.ok) << r1.serialize();
  EXPECT_EQ(r1.field_int("n"), 4);
  EXPECT_EQ(r1.field_int("m"), 5);

  Request solve;
  solve.op = Op::kSolve;
  solve.tenant = "t0";
  solve.id = 2;
  solve.has_seed = true;
  solve.seed = 7;
  const Response r2 = engine.execute(solve);
  ASSERT_TRUE(r2.ok) << r2.serialize();
  EXPECT_EQ(r2.field_int("value"), oracle_of_body(small_graph_body()));
  EXPECT_EQ(r2.fields.at("tier"), "exact");
  EXPECT_EQ(r2.field_int("certified"), 1);

  // Same seed, same graph: the session packing cache answers the repack.
  const Response r3 = engine.execute(solve);
  ASSERT_TRUE(r3.ok);
  EXPECT_EQ(r3.field_int("value"), r2.field_int("value"));
  EXPECT_GT(r3.field_int("cache_hits"), 0);

  // Raising one crossing edge's weight changes the instance; the solve must
  // track it (fingerprint invalidation, not stale cache).
  Request mutate;
  mutate.op = Op::kMutate;
  mutate.tenant = "t0";
  mutate.id = 4;
  mutate.edge = 1;  // {1,2} w=1, the cheapest cut's only crossing edge
  mutate.new_weight = 100;
  ASSERT_TRUE(engine.execute(mutate).ok);
  const Response r4 = engine.execute(solve);
  ASSERT_TRUE(r4.ok);
  std::istringstream is(small_graph_body());
  WeightedGraph mutated = try_read_edge_list(is).value();
  mutated.set_weight(1, 100);
  EXPECT_EQ(r4.field_int("value"), baseline::stoer_wagner(mutated).value);
}

TEST(Engine, StructuredErrorsForBadRequests) {
  Engine engine;
  Request solve;
  solve.op = Op::kSolve;
  solve.tenant = "ghost";
  solve.id = 1;
  const Response r1 = engine.execute(solve);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.error_code, to_string(ErrCode::kNoSession));

  Request load;
  load.op = Op::kLoad;
  load.tenant = "t0";
  load.id = 2;
  load.body = "2\n0 1 5\n";
  ASSERT_TRUE(engine.execute(load).ok);

  Request mutate;
  mutate.op = Op::kMutate;
  mutate.tenant = "t0";
  mutate.id = 3;
  mutate.edge = 99;  // out of range
  mutate.new_weight = 1;
  const Response r2 = engine.execute(mutate);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.error_code, to_string(ErrCode::kBadMutation));

  Request bad_load;
  bad_load.op = Op::kLoad;
  bad_load.tenant = "t1";
  bad_load.id = 4;
  bad_load.body = "3\n0 1 1\n";  // disconnected (node 2 isolated)
  const Response r3 = engine.execute(bad_load);
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.error_code, to_string(ErrCode::kBadGraph));
}

TEST(Engine, LruEvictionKeepsCountersConsistent) {
  EngineConfig cfg;
  cfg.max_sessions = 2;
  Engine engine(cfg);

  const auto load = [&](const char* tenant, std::int64_t id) {
    Request req;
    req.op = Op::kLoad;
    req.tenant = tenant;
    req.id = id;
    req.body = small_graph_body();
    return engine.execute(req);
  };
  ASSERT_TRUE(load("t0", 1).ok);
  ASSERT_TRUE(load("t1", 2).ok);
  EXPECT_EQ(engine.session_count(), 2u);

  // Touch t0 so t1 is the LRU victim when t2 arrives.
  Request solve;
  solve.op = Op::kSolve;
  solve.tenant = "t0";
  solve.id = 3;
  solve.has_seed = true;
  solve.seed = 1;
  ASSERT_TRUE(engine.execute(solve).ok);
  ASSERT_TRUE(load("t2", 4).ok);
  EXPECT_EQ(engine.session_count(), 2u);

  Request stats;
  stats.op = Op::kStats;
  stats.id = 5;
  const Response st = engine.execute(stats);
  ASSERT_TRUE(st.ok);
  // The header count and the session table must agree, and the victim must
  // be gone while the touched session survived.
  EXPECT_EQ(st.field_int("sessions"), 2);
  int rows = 0;
  std::istringstream body(st.body);
  std::string line;
  bool saw_t0 = false;
  bool saw_t1 = false;
  while (std::getline(body, line)) {
    if (line.empty()) continue;
    ++rows;
    saw_t0 = saw_t0 || line.rfind("t0 ", 0) == 0;
    saw_t1 = saw_t1 || line.rfind("t1 ", 0) == 0;
  }
  EXPECT_EQ(rows, 2);
  EXPECT_TRUE(saw_t0);
  EXPECT_FALSE(saw_t1);

  // A solve against the evicted tenant is a structured NO_SESSION, and an
  // explicit EVICT of a live one updates the count.
  Request ghost;
  ghost.op = Op::kSolve;
  ghost.tenant = "t1";
  ghost.id = 6;
  EXPECT_EQ(engine.execute(ghost).error_code, to_string(ErrCode::kNoSession));
  Request evict;
  evict.op = Op::kEvict;
  evict.tenant = "t2";
  evict.id = 7;
  const Response ev = engine.execute(evict);
  ASSERT_TRUE(ev.ok);
  EXPECT_EQ(ev.field_int("sessions"), 1);
  EXPECT_EQ(engine.session_count(), 1u);
}

// ---- serve loop: resilience over the wire ----------------------------------

TEST(Serve, CorruptPayloadsAreRecoveredFramingErrorsEndTheConnection) {
  Engine engine;
  std::istringstream in(frame("NONSENSE ???\n") +       // parse error: recovered
                        frame("LOAD t0 id=1\n" + small_graph_body()) +
                        frame("SOLVE t0 id=2 seed=5\n") +
                        std::string("\x07\x00", 2));    // truncated frame: fatal
  std::ostringstream out;
  const Engine::ServeStats st = engine.serve(in, out);

  EXPECT_EQ(st.frames, 3);
  EXPECT_EQ(st.parse_errors, 1);
  EXPECT_EQ(st.frame_errors, 1);

  // BAD_COMMAND and BAD_FRAME both carry id=0 and collapse in the map;
  // count raw responses for the full tally.
  EXPECT_EQ(read_responses(out.str()).size(), 4u);
  const std::map<std::int64_t, Response> resp = by_id(out.str());
  ASSERT_EQ(resp.size(), 3u);
  EXPECT_FALSE(resp.at(0).ok);
  EXPECT_TRUE(resp.at(1).ok);
  EXPECT_TRUE(resp.at(2).ok);
  EXPECT_EQ(resp.at(2).field_int("value"), oracle_of_body(small_graph_body()));

  // The connection died; the daemon did not. A fresh serve works.
  std::istringstream in2(frame("STATS id=9\n"));
  std::ostringstream out2;
  const Engine::ServeStats st2 = engine.serve(in2, out2);
  EXPECT_EQ(st2.frames, 1);
  const std::map<std::int64_t, Response> resp2 = by_id(out2.str());
  ASSERT_TRUE(resp2.count(9));
  EXPECT_TRUE(resp2.at(9).ok);
  EXPECT_EQ(resp2.at(9).field_int("sessions"), 1);  // t0 survived the bad frame
}

TEST(Serve, ShutdownRejectsLaterAdmissionsStructurally) {
  Engine engine;
  std::istringstream in(frame("LOAD t0 id=1\n" + small_graph_body()) +
                        frame("SHUTDOWN id=2\n") +
                        frame("SOLVE t0 id=3 seed=1\n") +  // after shutdown
                        frame("STATS id=4\n"));            // control plane still answers
  std::ostringstream out;
  (void)engine.serve(in, out);

  const std::map<std::int64_t, Response> resp = by_id(out.str());
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_TRUE(resp.at(1).ok);
  EXPECT_TRUE(resp.at(2).ok);
  EXPECT_FALSE(resp.at(3).ok);
  EXPECT_EQ(resp.at(3).error_code, to_string(ErrCode::kShuttingDown));
  EXPECT_TRUE(resp.at(4).ok);
  EXPECT_TRUE(engine.shutting_down());
}

TEST(Serve, MultiTenantConcurrentSolvesAuditCleanly) {
  // The threads8 job: several tenants' solves in flight across a wide
  // scheduler, every answer audited against the sequential oracle.
  EngineConfig cfg;
  cfg.scheduler_width = 4;
  Engine engine(cfg);

  constexpr int kTenants = 4;
  constexpr int kSolvesPerTenant = 3;
  std::ostringstream in_bytes;
  std::vector<Weight> oracle(kTenants);
  std::int64_t id = 0;
  Rng rng(123);
  for (int t = 0; t < kTenants; ++t) {
    WeightedGraph g = erdos_renyi_connected(10 + t, 0.3, rng);
    randomize_weights(g, 1, 20, rng);
    oracle[static_cast<std::size_t>(t)] = baseline::stoer_wagner(g).value;
    std::ostringstream body;
    write_edge_list(body, g);
    const std::string tenant = std::string("t") + std::to_string(t);
    write_frame(in_bytes, "LOAD " + tenant + " id=" + std::to_string(++id) + "\n" + body.str());
  }
  std::vector<std::pair<std::int64_t, int>> solve_ids;  // id -> tenant
  for (int round = 0; round < kSolvesPerTenant; ++round) {
    for (int t = 0; t < kTenants; ++t) {
      const std::string tenant = std::string("t") + std::to_string(t);
      write_frame(in_bytes,
                  "SOLVE " + tenant + " id=" + std::to_string(++id) + " seed=" +
                      std::to_string(100 + round) + "\n");
      solve_ids.emplace_back(id, t);
    }
  }

  std::istringstream in(in_bytes.str());
  std::ostringstream out;
  const Engine::ServeStats st = engine.serve(in, out);
  EXPECT_EQ(st.frames, id);
  EXPECT_EQ(st.responses, id);

  const std::map<std::int64_t, Response> resp = by_id(out.str());
  ASSERT_EQ(resp.size(), static_cast<std::size_t>(id));
  for (const auto& [solve_id, tenant] : solve_ids) {
    ASSERT_TRUE(resp.count(solve_id));
    const Response& r = resp.at(solve_id);
    ASSERT_TRUE(r.ok) << r.serialize();
    EXPECT_EQ(r.field_int("value"), oracle[static_cast<std::size_t>(tenant)])
        << "tenant t" << tenant << " id " << solve_id;
    EXPECT_EQ(r.fields.at("tier"), "exact");
    EXPECT_EQ(r.field_int("certified"), 1);
  }
}

}  // namespace
}  // namespace umc::server
