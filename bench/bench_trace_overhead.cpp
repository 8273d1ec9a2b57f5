// Experiment E20: observability overhead.
//
// The tracing contract (DESIGN.md "Observability") has two states:
//   * off (the default): one relaxed atomic load + branch per span
//     site — BM_SpanMicro/off measures that in isolation;
//   * spans on: timestamped ring-buffer writes — BM_SpanMicro/on is the
//     per-span cost, and the BM_CompiledMst pair measures the end-to-end
//     multiplier on the E15 workload (compiled Borůvka on a grid), the
//     acceptance gate for the < 5% overhead budget.
//
// Each traced variant clears the tracer first so ring saturation (drop-
// newest) cannot flatter later iterations.

#include "bench_common.hpp"
#include "congest/compiled_network.hpp"
#include "obs/trace.hpp"

namespace umc {
namespace {

// Per-span-site cost in isolation: a tight loop over one span with an arg.
void BM_SpanMicro(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(enabled);
  tracer.clear();
  std::int64_t i = 0;
  for (auto _ : state) {
    UMC_OBS_SPAN_VAR_L(span, "bench/micro", "bench", i);
    span.arg("i", i);
    ++i;
    benchmark::ClobberMemory();
    if ((i & 0x3fff) == 0) tracer.clear();  // keep the ring from saturating
  }
  tracer.set_enabled(false);
  state.counters["spans"] = static_cast<double>(i);
  tracer.clear();
}

// End-to-end E15 workload: compiled Borůvka MST on a weighted grid. The
// off/on pair is the overhead multiplier EXPERIMENTS.md reports.
void run_compiled(benchmark::State& state, bool enabled) {
  const WeightedGraph g = grid_graph(32, 32);
  Rng rng(19);
  std::vector<std::int64_t> cost(static_cast<std::size_t>(g.m()));
  for (auto& c : cost) c = rng.next_in(1, 1000);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(enabled);
  congest::CompiledBoruvkaResult res{};
  for (auto _ : state) {
    tracer.clear();
    res = congest::compiled_boruvka(g, cost);
    benchmark::DoNotOptimize(res);
  }
  tracer.set_enabled(false);
  state.counters["ma_rounds"] = static_cast<double>(res.ma_rounds);
  state.counters["real_congest_rounds"] = static_cast<double>(res.congest_rounds);
  state.counters["spans"] = static_cast<double>(tracer.snapshot().size());
  tracer.clear();
}

void BM_CompiledMstTraceOff(benchmark::State& state) { run_compiled(state, false); }
void BM_CompiledMstTraceOn(benchmark::State& state) { run_compiled(state, true); }

BENCHMARK(BM_SpanMicro)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_CompiledMstTraceOff)->Iterations(20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompiledMstTraceOn)->Iterations(20)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
