// Experiment E5 (Figure 2 / Theorem 27 / Lemmas 30 & 32): star instances.
//
// Sweeps the number of paths k and the path length, reporting the measured
// interest-graph degree (Lemma 30 bounds it by O(log n)), the number of
// edge-coloring classes (O(Δ)), and Minor-Aggregation rounds.

#include "bench_common.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/star.hpp"

namespace umc {
namespace {

mincut::StarInstance spider_instance(const WeightedGraph& g, int k, NodeId len) {
  mincut::StarInstance inst;
  inst.graph = g;
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  inst.root = 0;
  for (int i = 0; i < k; ++i) {
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
    for (NodeId j = 0; j < len; ++j) {
      nodes.push_back(1 + static_cast<NodeId>(i) * len + j);
      const EdgeId e = static_cast<EdgeId>(i) * len + j;
      edges.push_back(e);
      inst.origin[static_cast<std::size_t>(e)] = e;
    }
    inst.path_nodes.push_back(std::move(nodes));
    inst.path_edges.push_back(std::move(edges));
  }
  std::vector<EdgeId> tree;
  for (const auto& pe : inst.path_edges) tree.insert(tree.end(), pe.begin(), pe.end());
  mincut::fill_cut_row(inst, tree);
  return inst;
}

void run_star(benchmark::State& state, int k, NodeId len) {
  Rng rng(5 + static_cast<std::uint64_t>(k) * 131 + static_cast<std::uint64_t>(len));
  WeightedGraph g = spider(k, len, 6 * k * static_cast<EdgeId>(len), rng);
  randomize_weights(g, 1, 100, rng);
  const mincut::StarInstance inst = spider_instance(g, k, len);

  minoragg::Ledger ledger;
  for (auto _ : state) {
    minoragg::Ledger run;
    benchmark::DoNotOptimize(mincut::star_mincut(inst, run));
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["k"] = k;
  state.counters["path_len"] = len;
  state.counters["n"] = g.n();
  state.counters["log2_n"] = std::max(1, ceil_log2(static_cast<std::uint64_t>(g.n())));
}

void BM_StarSweepK(benchmark::State& state) {
  run_star(state, static_cast<int>(state.range(0)), 12);
}
void BM_StarSweepLen(benchmark::State& state) {
  run_star(state, 8, static_cast<NodeId>(state.range(0)));
}

BENCHMARK(BM_StarSweepK)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StarSweepLen)->Arg(4)->Arg(16)->Arg(64)->Arg(128)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
