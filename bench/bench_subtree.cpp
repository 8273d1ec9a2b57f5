// Experiment E6 (Figures 3/4 / Theorem 39): between-subtree instances.
//
// The algorithm examines chi * (maxHL+1)^2 = O(log^3 n) star
// configurations; the "subtree_star_calls" counter (after the
// no-cross-edge pruning) and the MA round count are reported against the
// log^3 budget.

#include <cmath>

#include "bench_common.hpp"
#include "mincut/subtree_instance.hpp"

namespace umc {
namespace {

void BM_BetweenSubtree(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(7 + static_cast<std::uint64_t>(n));
  WeightedGraph g = random_connected(n, 3 * n, rng);
  randomize_weights(g, 1, 100, rng);
  const auto tree = bfs_spanning_tree(g, 0);
  mincut::Instance inst = mincut::make_root_instance(g, tree, 0);
  const RootedTree t(inst.graph, tree, 0);

  minoragg::Ledger ledger;
  for (auto _ : state) {
    minoragg::Ledger run;
    benchmark::DoNotOptimize(mincut::root_between_subtree_mincut(t, inst, run));
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["n"] = n;
  state.counters["star_calls_per_log3"] =
      static_cast<double>(ledger.counter("subtree_star_calls")) /
      std::pow(std::log2(static_cast<double>(n)), 3.0);
}

BENCHMARK(BM_BetweenSubtree)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
