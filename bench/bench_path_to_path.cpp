// Experiment E4 (Figure 1 / Theorem 19): path-to-path 2-respecting min-cut.
//
// Sweeping the path length |P| = |Q| shows the Monge recursion's
// O(log |P|) depth and Õ(1)-per-level round cost; rounds grow ~log^2 while
// the instance grows 64x.

#include "bench_common.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/path_to_path.hpp"

namespace umc {
namespace {

mincut::PathInstance broom_instance(const WeightedGraph& g, NodeId len) {
  mincut::PathInstance inst;
  inst.graph = g;
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  inst.root = 0;
  for (NodeId i = 0; i < len; ++i) {
    inst.nodesP.push_back(1 + i);
    inst.edgesP.push_back(i);
    inst.origin[static_cast<std::size_t>(i)] = i;
    inst.nodesQ.push_back(len + 1 + i);
    inst.edgesQ.push_back(len + i);
    inst.origin[static_cast<std::size_t>(len + i)] = len + i;
  }
  std::vector<EdgeId> tree(inst.edgesP.begin(), inst.edgesP.end());
  tree.insert(tree.end(), inst.edgesQ.begin(), inst.edgesQ.end());
  mincut::fill_cut_row(inst, tree);
  return inst;
}

void BM_PathToPath(benchmark::State& state) {
  const NodeId len = static_cast<NodeId>(state.range(0));
  Rng rng(3 + static_cast<std::uint64_t>(len));
  WeightedGraph g = double_broom(len, 6 * len, rng);
  randomize_weights(g, 1, 100, rng);
  const mincut::PathInstance inst = broom_instance(g, len);

  minoragg::Ledger ledger;
  for (auto _ : state) {
    minoragg::Ledger run;
    benchmark::DoNotOptimize(mincut::path_to_path_mincut(inst, run));
    ledger = run;
  }
  benchutil::export_ledger(state, ledger);
  state.counters["path_len"] = len;
  state.counters["depth_bound_log2"] = ceil_log2(static_cast<std::uint64_t>(len));
}

BENCHMARK(BM_PathToPath)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
