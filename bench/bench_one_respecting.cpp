// Experiment E12 (Theorem 18): 1-respecting cuts for ALL tree edges in
// Õ(1) Minor-Aggregation rounds (two subtree sums + two aggregation
// rounds). Rounds grow ~log^2 n while n grows 100x.

#include "bench_common.hpp"
#include "mincut/instance.hpp"
#include "mincut/one_respect.hpp"
#include "minoragg/tree_primitives.hpp"

namespace umc {
namespace {

void BM_OneRespecting(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(37);
  WeightedGraph g = random_connected(n, 4 * n, rng);
  randomize_weights(g, 1, 100, rng);
  const auto tree = bfs_spanning_tree(g, 0);
  const RootedTree t(g, tree, 0);
  const HeavyLightDecomposition hld(t);
  const mincut::Instance inst = mincut::make_root_instance(g, tree, 0);

  minoragg::Ledger ledger;
  std::vector<Weight> cut;
  for (auto _ : state) {
    minoragg::Ledger run;
    benchmark::DoNotOptimize(mincut::one_respecting_cuts(t, inst.origin, hld, run, cut));
    benchmark::DoNotOptimize(cut.data());
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["n"] = n;
  state.counters["log2_n_sq"] = static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n))) *
                                static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n)));
}

BENCHMARK(BM_OneRespecting)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
