// Experiment E26 (perf): incremental min-cut over edge-update streams.
//
// One deterministic mutation-heavy workload — the E23 workhorse graph
// (ER n=96, avg degree 8) under batches of small-delta reweights — replayed
// two ways:
//
//   BM_StreamScratch       the pre-change path: every batch re-solves from
//                          scratch (fresh packing, cache off) — what a
//                          MUTATE+SOLVE round-trip cost before src/stream.
//   BM_StreamIncremental/w the IncrementalMinCut warm tiers at session
//                          width w (1/2/4/8).
//
// Every solve in BOTH variants is differentially audited against a
// Stoer–Wagner mirror that applies the same deltas, and both variants fold
// the same value checksum — the incremental path must reproduce the scratch
// answers exactly, batch for batch. The audits run with the timers paused,
// so wall time is the solve path alone. Gated counters: checksum,
// audit_mismatches (0), warm_hits, fallbacks, full_solves, trees_resolved /
// trees_skipped. Wall time is informational here; the >= 5x updates/sec
// gate in CI is computed WITHIN one fresh BENCH_stream.json as
// wall(BM_StreamScratch) / wall(BM_StreamIncremental/1), so machine speed
// cancels out.

#include "baseline/stoer_wagner.hpp"
#include "bench_common.hpp"
#include "mincut/exact_mincut.hpp"
#include "stream/incremental.hpp"

namespace umc {
namespace {

constexpr int kBatches = 48;
constexpr int kOpsPerBatch = 8;
constexpr std::uint64_t kGraphSeed = 21;
constexpr std::uint64_t kStreamSeed = 2026;

/// The shared update stream: per batch, kOpsPerBatch small-delta reweights
/// (+-1..3, clamped to [1, 100]) of rng-chosen edges — telemetry-style
/// drift, the regime the warm tiers exist for. Pure function of the seeds,
/// so scratch and incremental replay byte-identical histories.
std::vector<stream::UpdateBatch> make_stream(const WeightedGraph& base) {
  Rng rng(kStreamSeed);
  std::vector<Weight> w(static_cast<std::size_t>(base.m()));
  for (EdgeId e = 0; e < base.m(); ++e)
    w[static_cast<std::size_t>(e)] = base.edges()[static_cast<std::size_t>(e)].w;
  std::vector<stream::UpdateBatch> batches(kBatches);
  for (stream::UpdateBatch& batch : batches) {
    for (int k = 0; k < kOpsPerBatch; ++k) {
      const auto e = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(base.m())));
      const auto delta = static_cast<Weight>(1 + rng.next_below(3));
      const Weight nw = rng.next_bool(0.5) ? std::max<Weight>(1, w[e] - delta)
                                           : std::min<Weight>(100, w[e] + delta);
      w[e] = nw;
      batch.reweight(static_cast<EdgeId>(e), nw);
    }
  }
  return batches;
}

mincut::PackingConfig bench_packing() {
  mincut::PackingConfig config;
  config.max_trees = 16;
  config.use_cache = false;  // measure the solve, not packing memoization
  return config;
}

/// The pre-change cost of one MUTATE batch + SOLVE: apply the reweights to
/// a plain graph, then run the full pipelined exact solve with a fresh
/// packing. Seeds advance per batch exactly like the incremental full
/// tier's epoch lineage would, so the baseline is not accidentally handed
/// a lucky fixed packing.
void BM_StreamScratch(benchmark::State& state) {
  const WeightedGraph base = benchutil::weighted_er(96, 8.0, kGraphSeed);
  const std::vector<stream::UpdateBatch> batches = make_stream(base);
  std::uint64_t checksum = 0;
  std::int64_t mismatches = 0;
  std::int64_t updates = 0;
  for (auto _ : state) {
    WeightedGraph g = base;
    checksum = 0x756d635f45323661ULL;  // "umc_E26a"
    mismatches = 0;
    updates = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (const stream::UpdateOp& op : batches[b].ops) g.set_weight(op.edge, op.w);
      updates += static_cast<std::int64_t>(batches[b].size());
      Rng rng(mix64(kStreamSeed ^ b));
      minoragg::Ledger ledger;
      const mincut::ExactMinCutResult r =
          mincut::exact_mincut(g, rng, ledger, bench_packing(), /*num_threads=*/1);
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(r.value));
      state.PauseTiming();
      if (r.value != baseline::stoer_wagner(g).value) ++mismatches;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["batches"] = static_cast<double>(batches.size());
  state.counters["updates"] = static_cast<double>(updates);
  state.counters["checksum"] = static_cast<double>(checksum % (1u << 30));
  state.counters["audit_mismatches"] = static_cast<double>(mismatches);
}

/// The warm path at an explicit session width. Counters must match width 1
/// exactly — only wall/cpu time may move with w.
void BM_StreamIncremental(benchmark::State& state) {
  const WeightedGraph base = benchutil::weighted_er(96, 8.0, kGraphSeed);
  const std::vector<stream::UpdateBatch> batches = make_stream(base);
  stream::StreamCounters counters;
  std::uint64_t checksum = 0;
  std::int64_t mismatches = 0;
  for (auto _ : state) {
    stream::StreamConfig cfg;
    cfg.seed = kStreamSeed;
    cfg.num_threads = static_cast<int>(state.range(0));
    cfg.packing = bench_packing();
    stream::IncrementalMinCut inc(base, cfg);
    checksum = 0x756d635f45323661ULL;  // same fold as scratch: values must agree
    mismatches = 0;
    for (const stream::UpdateBatch& batch : batches) {
      const auto applied = inc.apply(batch);
      UMC_ASSERT(applied.has_value());
      const stream::StreamSolveReport rep = inc.solve();
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(rep.value));
      state.PauseTiming();
      if (rep.value != baseline::stoer_wagner(inc.graph()).value) ++mismatches;
      state.ResumeTiming();
    }
    counters = inc.counters();
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["batches"] = static_cast<double>(counters.batches);
  state.counters["updates"] = static_cast<double>(counters.updates);
  state.counters["checksum"] = static_cast<double>(checksum % (1u << 30));
  state.counters["audit_mismatches"] = static_cast<double>(mismatches);
  state.counters["warm_hits"] = static_cast<double>(counters.warm_hits);
  state.counters["warm_misses"] = static_cast<double>(counters.warm_misses);
  state.counters["fallbacks"] = static_cast<double>(counters.fallbacks);
  state.counters["full_solves"] = static_cast<double>(counters.full_solves);
  state.counters["trees_resolved"] = static_cast<double>(counters.trees_resolved);
  state.counters["trees_skipped"] = static_cast<double>(counters.trees_skipped);
}

BENCHMARK(BM_StreamScratch)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamIncremental)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
