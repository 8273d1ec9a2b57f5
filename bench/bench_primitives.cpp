// Experiment E10 (Appendix A, Lemmas 44-47 / Theorem 48): the deterministic
// primitives run in Õ(1) Minor-Aggregation rounds.
//
// Reports, per n: Cole-Vishkin iterations (O(log* n) — essentially constant
// across 3 orders of magnitude), star-merge-driven HL-construction
// iterations (O(log n)), and subtree/ancestor-sum rounds (O(log^2 n)).

#include "bench_common.hpp"
#include "minoragg/cole_vishkin.hpp"
#include "minoragg/tree_primitives.hpp"
#include "tree/rooted_tree.hpp"

namespace umc {
namespace {

void BM_ColeVishkin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) out[static_cast<std::size_t>(v)] = v + 1 < n ? v + 1 : -1;
  minoragg::Ledger ledger;
  minoragg::ColeVishkinScratch scratch;
  for (auto _ : state) {
    minoragg::Ledger run;
    std::vector<int> color;
    minoragg::cole_vishkin_3color(out, run, color, scratch);
    benchmark::DoNotOptimize(color);
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["n"] = n;
}

void BM_HlConstructAndSums(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(29);
  const WeightedGraph g = random_tree(n, rng);
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
  const RootedTree t(g, ids, 0);
  const std::vector<std::int64_t> ones(static_cast<std::size_t>(n), 1);

  minoragg::Ledger construct, sums;
  for (auto _ : state) {
    minoragg::Ledger c, s;
    const HeavyLightDecomposition hld = minoragg::hl_construct(t, c);
    benchmark::DoNotOptimize(minoragg::hl_subtree_sums<SumAgg>(t, hld, ones, s));
    benchmark::DoNotOptimize(minoragg::hl_ancestor_sums<SumAgg>(t, hld, ones, s));
    construct = c;
    sums = s;
  }
  state.counters["n"] = n;
  state.counters["construct_rounds"] = static_cast<double>(construct.rounds());
  state.counters["hl_merge_iterations"] =
      static_cast<double>(construct.counter("hl_merge_iterations"));
  state.counters["cv_iterations"] = static_cast<double>(construct.counter("cv_iterations"));
  state.counters["sum_rounds"] = static_cast<double>(sums.rounds());
  state.counters["log2_n"] = ceil_log2(static_cast<std::uint64_t>(n));
}

void BM_Centroid(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(31);
  const WeightedGraph g = random_tree(n, rng);
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
  const RootedTree t(g, ids, 0);
  const HeavyLightDecomposition hld(t);
  minoragg::Ledger ledger;
  for (auto _ : state) {
    minoragg::Ledger run;
    benchmark::DoNotOptimize(minoragg::find_centroid_ma(t, hld, run));
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["n"] = n;
}

BENCHMARK(BM_ColeVishkin)->Arg(100)->Arg(10000)->Arg(1000000)->Iterations(1);
BENCHMARK(BM_HlConstructAndSums)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Centroid)->Arg(100)->Arg(10000)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
