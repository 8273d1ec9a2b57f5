// Tests for the observability subsystem (src/obs): span tracer semantics,
// logical-clock determinism at every thread width, the zero-cost contract
// of the kill switches, the typed metrics registry, and byte-exact exporter
// goldens. Registered twice in CTest: plain, and as test_obs_threads8 with
// the pool forced to 8 workers (the TSAN job for concurrent recording).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "minoragg/ledger.hpp"
#include "minoragg/network.hpp"
#include "obs/export.hpp"
#include "obs/ledger_bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

// ---- allocation counting ---------------------------------------------------
// Replacing the global allocator counts every heap allocation the binary
// makes; the disabled-tracing test asserts the count stays flat across a
// burst of span sites.

static std::atomic<std::size_t> g_alloc_count{0};

// GCC pairs the replaced operator new with the free() it inlines out of the
// replaced delete and mis-flags the pair; the overrides below ARE matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace umc {
namespace {

using obs::TraceEvent;
using obs::Tracer;

/// The (name, logical, depth) skeleton of this thread's events — the
/// deterministic part of a trace (wall fields vary run to run).
struct Skeleton {
  std::string name;
  std::int64_t logical;
  std::int32_t depth;

  friend bool operator==(const Skeleton&, const Skeleton&) = default;
};

std::vector<Skeleton> skeleton_of(const std::vector<TraceEvent>& events, std::int32_t tid) {
  std::vector<Skeleton> out;
  for (const TraceEvent& e : events)
    if (e.tid == tid) out.push_back(Skeleton{e.name, e.logical, e.depth});
  return out;
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().set_clock_for_testing(nullptr);
    Tracer::global().clear();
  }
};

TEST_F(TracerTest, SpansNestAndOrderBySeq) {
  {
    UMC_OBS_SPAN_VAR_L(outer, "test/outer", "test", 1);
    outer.arg("k", 42);
    {
      UMC_OBS_SPAN_L("test/inner", "test", 2);
      UMC_OBS_SPAN_L("test/innermost", "test", 3);
    }
    UMC_OBS_SPAN_L("test/sibling", "test", 4);
  }
  const auto events = Tracer::global().snapshot();
  const auto skel = skeleton_of(events, Tracer::global().current_tid());
  // Events commit at span END, so children precede parents; seq (the BEGIN
  // order) is what snapshot() sorts by, restoring begin order.
  const std::vector<Skeleton> expected = {
      {"test/outer", 1, 0},
      {"test/inner", 2, 1},
      {"test/innermost", 3, 2},
      {"test/sibling", 4, 1},
  };
  EXPECT_EQ(skel, expected);
  // The outer span carried its arg through.
  bool found = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "test/outer") continue;
    found = true;
    ASSERT_NE(e.args[0].key, nullptr);
    EXPECT_STREQ(e.args[0].key, "k");
    EXPECT_EQ(e.args[0].value, 42);
  }
  EXPECT_TRUE(found);
}

TEST_F(TracerTest, LogicalSkeletonIsIdenticalAtEveryThreadWidth) {
  // The same MA workload at widths 1..8 must produce byte-identical
  // main-thread logical traces AND identical charged rounds — the tracing
  // analogue of the round engine's bit-identical-fold contract. The graph
  // is big enough (64x64 grid) to cross the engine's parallel cutoff.
  const WeightedGraph g = grid_graph(64, 64);
  Rng pattern_rng(0xBEEF);
  std::vector<std::vector<bool>> patterns;
  for (int p = 0; p < 3; ++p) {
    std::vector<bool> c(static_cast<std::size_t>(g.m()));
    for (std::size_t e = 0; e < c.size(); ++e) c[e] = pattern_rng.next_bool(0.8);
    patterns.push_back(std::move(c));
  }
  std::vector<std::int64_t> x(static_cast<std::size_t>(g.n()));
  for (std::size_t v = 0; v < x.size(); ++v) x[v] = static_cast<std::int64_t>(v % 97);

  const auto run_traced = [&](int width) {
    Tracer::global().clear();
    minoragg::Ledger ledger;
    minoragg::Network net(g, ledger);
    net.set_threads(width);
    std::int64_t checksum = 0;
    for (int r = 0; r < 6; ++r) {
      const auto res = net.round<SumAgg, SumAgg>(
          patterns[static_cast<std::size_t>(r) % patterns.size()], x,
          [](EdgeId, const std::int64_t& yu, const std::int64_t& yv) {
            return std::pair<std::int64_t, std::int64_t>{yv % 1009, yu % 1009};
          });
      checksum += res.consensus[0] + res.aggregate[res.aggregate.size() - 1];
    }
    const auto skel =
        skeleton_of(Tracer::global().snapshot(), Tracer::global().current_tid());
    return std::tuple(skel, ledger.rounds(), checksum);
  };

  const auto [ref_skel, ref_rounds, ref_checksum] = run_traced(1);
  EXPECT_EQ(ref_rounds, 6);
  ASSERT_FALSE(ref_skel.empty());
  for (int width = 2; width <= 8; ++width) {
    const auto [skel, rounds, checksum] = run_traced(width);
    EXPECT_EQ(skel, ref_skel) << "width " << width;
    EXPECT_EQ(rounds, ref_rounds) << "width " << width;
    EXPECT_EQ(checksum, ref_checksum) << "width " << width;
  }
}

TEST_F(TracerTest, ChargedRoundsIdenticalWithTracingOnAndOff) {
  const WeightedGraph g = grid_graph(16, 16);
  const std::vector<bool> contract(static_cast<std::size_t>(g.m()), true);
  const std::vector<std::int64_t> x(static_cast<std::size_t>(g.n()), 1);

  const auto run = [&](bool traced) {
    Tracer::global().set_enabled(traced);
    Tracer::global().clear();
    minoragg::Ledger ledger;
    minoragg::Network net(g, ledger);
    for (int r = 0; r < 5; ++r)
      (void)net.round<SumAgg, SumAgg>(
          contract, x, [](EdgeId, const std::int64_t&, const std::int64_t&) {
            return std::pair<std::int64_t, std::int64_t>{1, 1};
          });
    return ledger.rounds();
  };

  const std::int64_t traced = run(true);
  const std::int64_t untraced = run(false);
  EXPECT_EQ(traced, untraced);
  EXPECT_EQ(traced, 5);
}

TEST_F(TracerTest, ConcurrentRecordingKeepsPerThreadStreamsOrdered) {
  // Four free threads record concurrently; every thread's stream must come
  // back complete and seq-ordered. (The threads8 CTest job runs this under
  // TSAN as well.)
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        UMC_OBS_SPAN_L("test/worker", "test", t * kSpansPerThread + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const auto events = Tracer::global().snapshot();
  std::map<std::int32_t, std::vector<std::int64_t>> logical_by_tid;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "test/worker") continue;
    logical_by_tid[e.tid].push_back(e.logical);
  }
  std::size_t total = 0;
  for (const auto& [tid, logicals] : logical_by_tid) {
    total += logicals.size();
    // Within a thread spans began in logical order, so the snapshot's
    // seq-sorted stream must be strictly increasing.
    for (std::size_t i = 1; i < logicals.size(); ++i)
      EXPECT_LT(logicals[i - 1], logicals[i]);
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::global().dropped(), 0);
}

TEST_F(TracerTest, RingDropsNewestAndCounts) {
  const std::size_t cap = Tracer::global().ring_capacity();
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < cap + extra; ++i) {
    UMC_OBS_SPAN("test/flood", "test");
  }
  const auto events = Tracer::global().snapshot();
  std::size_t mine = 0;
  const std::int32_t tid = Tracer::global().current_tid();
  for (const TraceEvent& e : events)
    if (e.tid == tid) ++mine;
  EXPECT_EQ(mine, cap);
  EXPECT_EQ(Tracer::global().dropped(), static_cast<std::int64_t>(extra));
}

TEST(TracerDisabled, DisabledSpanSitesAllocateNothing) {
  // The runtime kill switch must make a span site allocation-free (one
  // relaxed load + branch). Compiled-out builds trivially pass: the macro
  // IS nothing.
  Tracer::global().set_enabled(false);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    UMC_OBS_SPAN_VAR_L(span, "test/disabled", "test", i);
    span.arg("i", i);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, RegistryReturnsStableInstancesByNameAndLabels) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("umc_test_events_total", {{"sim", "ma"}}, "help");
  obs::Counter& b = reg.counter("umc_test_events_total", {{"sim", "ma"}});
  EXPECT_EQ(&a, &b);  // find-or-register
  // Label order canonicalizes: {x,y} and {y,x} are the same instance.
  obs::Counter& c = reg.counter("umc_test_multi_total", {{"x", "1"}, {"y", "2"}});
  obs::Counter& d = reg.counter("umc_test_multi_total", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&c, &d);
  // Different labels = different instance.
  obs::Counter& e = reg.counter("umc_test_events_total", {{"sim", "congest"}});
  EXPECT_NE(&a, &e);
  a.inc(3);
  EXPECT_EQ(b.value(), 3);
  EXPECT_EQ(e.value(), 0);
}

TEST(Metrics, GaugeSetMaxIsRunningMaximum) {
  obs::MetricsRegistry reg;
  obs::Gauge& gauge = reg.gauge("umc_test_depth");
  gauge.set_max(5);
  gauge.set_max(3);
  EXPECT_EQ(gauge.value(), 5);
  gauge.set_max(9);
  EXPECT_EQ(gauge.value(), 9);
  gauge.set(2);  // plain set overrides
  EXPECT_EQ(gauge.value(), 2);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("umc_test_sizes", {1, 10, 100});
  h.observe(0);    // le 1
  h.observe(1);    // le 1 (inclusive)
  h.observe(7);    // le 10
  h.observe(100);  // le 100
  h.observe(101);  // +Inf
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 209);
}

TEST(Metrics, LedgerBridgeTranslatesTheKeyConvention) {
  minoragg::Ledger ledger;
  ledger.charge(7);
  ledger.bump("cv_iterations", 4);
  ledger.set_max("max_general_depth", 3);

  obs::MetricsRegistry reg;
  obs::bridge_ledger(reg, ledger, "ma");
  EXPECT_EQ(reg.counter("umc_ma_rounds_total", {{"sim", "ma"}}).value(), 7);
  EXPECT_EQ(reg.counter("umc_ledger_cv_iterations_total", {{"sim", "ma"}}).value(), 4);
  EXPECT_EQ(reg.gauge("umc_ledger_max_general_depth", {{"sim", "ma"}}).value(), 3);

  // Bridging a second ledger composes like ledger absorption: counters sum,
  // max-gauges max.
  minoragg::Ledger other;
  other.charge(5);
  other.set_max("max_general_depth", 2);
  obs::bridge_ledger(reg, other, "ma");
  EXPECT_EQ(reg.counter("umc_ma_rounds_total", {{"sim", "ma"}}).value(), 12);
  EXPECT_EQ(reg.gauge("umc_ledger_max_general_depth", {{"sim", "ma"}}).value(), 3);
}

// ---- exporter goldens ------------------------------------------------------

TEST(Export, ChromeTraceGolden) {
  // Hand-built events with pinned clocks and tids: the rendered document
  // must match byte for byte (Perfetto-loadable complete events).
  TraceEvent a;
  a.name = "ma/round";
  a.cat = "ma";
  a.t0_ns = 1500;
  a.dur_ns = 2750;
  a.logical = 7;
  a.seq = 0;
  a.depth = 0;
  a.tid = 0;
  a.args[0] = {"n", 24};
  TraceEvent b;
  b.name = "engine/execute";
  b.cat = "engine";
  b.t0_ns = 2000;
  b.dur_ns = 1000;
  b.logical = -1;  // none: omitted from args
  b.seq = 1;
  b.depth = 1;
  b.tid = 1;
  const std::vector<TraceEvent> events = {a, b};

  std::ostringstream os;
  obs::write_chrome_trace(os, events, /*dropped=*/3);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":["
            "{\"name\":\"ma/round\",\"cat\":\"ma\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
            "\"ts\":1.500,\"dur\":2.750,\"args\":{\"logical\":7,\"n\":24}},\n"
            "{\"name\":\"engine/execute\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":0,"
            "\"tid\":1,\"ts\":2.000,\"dur\":1.000,\"args\":{}}"
            "],\"otherData\":{\"dropped_events\":3}}\n");
}

TEST(Export, PrometheusGolden) {
  obs::MetricsRegistry reg;
  reg.counter("umc_test_events_total", {{"sim", "ma"}}, "Events processed.").inc(3);
  reg.gauge("umc_test_depth", {}, "Recursion depth.").set(5);
  obs::Histogram& h = reg.histogram("umc_test_sizes", {1, 10}, {}, "Batch sizes.");
  h.observe(0);
  h.observe(5);
  h.observe(100);

  std::ostringstream os;
  obs::write_prometheus(os, reg);
  EXPECT_EQ(os.str(),
            "# HELP umc_test_depth Recursion depth.\n"
            "# TYPE umc_test_depth gauge\n"
            "umc_test_depth 5\n"
            "# HELP umc_test_events_total Events processed.\n"
            "# TYPE umc_test_events_total counter\n"
            "umc_test_events_total{sim=\"ma\"} 3\n"
            "# HELP umc_test_sizes Batch sizes.\n"
            "# TYPE umc_test_sizes histogram\n"
            "umc_test_sizes_bucket{le=\"1\"} 1\n"
            "umc_test_sizes_bucket{le=\"10\"} 2\n"
            "umc_test_sizes_bucket{le=\"+Inf\"} 3\n"
            "umc_test_sizes_sum 105\n"
            "umc_test_sizes_count 3\n");
}

TEST(Export, FlatTableAlignsAndSummarizesHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("umc_test_events_total", {{"sim", "ma"}}).inc(3);
  obs::Histogram& h = reg.histogram("umc_test_sizes", {10});
  h.observe(4);
  h.observe(8);

  std::ostringstream os;
  obs::write_flat_table(os, reg);
  // The name column is the longest id ("umc_test_events_total{sim=\"ma\"}",
  // 31 chars) plus two spaces of gutter.
  const std::string expected = "umc_test_events_total{sim=\"ma\"}  3\n" +
                               ("umc_test_sizes" + std::string(19, ' ')) +
                               "count=2 sum=12 avg=6.00\n";
  EXPECT_EQ(os.str(), expected);
}

}  // namespace
}  // namespace umc
