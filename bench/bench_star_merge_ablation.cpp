// Experiment E16 (ablation, Appendix A): deterministic Cole-Vishkin star
// merging (Lemma 44) vs the classic randomized coin-flip merging it
// replaces.
//
// Workload: repeatedly merge a singleton partition of a random tree until
// one part remains (the Lemma 47 schedule). Reported: merge iterations and
// total rounds for both strategies. The deterministic variant guarantees
// >= 1/3 of parts merge each iteration; the randomized one merges 1/4 in
// expectation and pays nothing for coloring — the paper's point is that
// determinism costs only the O(log* n) Cole-Vishkin additive term.

#include "bench_common.hpp"
#include "graph/dsu.hpp"
#include "minoragg/star_merge.hpp"
#include "tree/rooted_tree.hpp"
#include "util/rng.hpp"

namespace umc {
namespace {

/// The classic RANDOMIZED star merging that Lemma 44 derandomizes: each part
/// flips a fair coin; a part joins iff it came up "joiner" and its
/// out-target came up "receiver". One round; E[|J|] = |O|/4, but any single
/// round can merge nothing.
minoragg::StarMergeResult random_star_merge(std::span<const int> out, Rng& rng,
                                            minoragg::Ledger& ledger) {
  // One round: every part announces its coin; joiners point at receivers.
  ledger.charge(1);
  std::vector<bool> heads(out.size());
  for (std::size_t v = 0; v < out.size(); ++v) heads[v] = rng.next_bool(0.5);
  minoragg::StarMergeResult res;
  res.is_joiner.assign(out.size(), false);
  for (std::size_t v = 0; v < out.size(); ++v) {
    if (out[v] < 0) continue;
    ++res.out_degree_one;
    if (heads[v] && !heads[static_cast<std::size_t>(out[v])]) {
      res.is_joiner[v] = true;
      ++res.num_joiners;
    }
  }
  return res;
}

template <typename MergeFn>
std::pair<int, std::int64_t> merge_to_one(const RootedTree& t, MergeFn&& merge_fn) {
  const NodeId n = t.n();
  Dsu parts(n);
  minoragg::Ledger ledger;
  int iterations = 0;
  while (parts.num_components() > 1) {
    std::vector<NodeId> rep_of(static_cast<std::size_t>(n), kNoNode);
    std::vector<NodeId> part_rep;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId r = parts.find(v);
      if (rep_of[static_cast<std::size_t>(r)] == kNoNode) {
        rep_of[static_cast<std::size_t>(r)] = static_cast<NodeId>(part_rep.size());
        part_rep.push_back(r);
      }
    }
    const std::size_t k = part_rep.size();
    std::vector<int> out(k, -1);
    std::vector<NodeId> top(k, kNoNode);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t p = static_cast<std::size_t>(rep_of[static_cast<std::size_t>(parts.find(v))]);
      if (top[p] == kNoNode || t.depth(v) < t.depth(top[p])) top[p] = v;
    }
    for (std::size_t p = 0; p < k; ++p) {
      const NodeId parent = t.parent(top[p]);
      if (parent != kNoNode) out[p] = rep_of[static_cast<std::size_t>(parts.find(parent))];
    }
    const minoragg::StarMergeResult res = merge_fn(out, ledger);
    for (std::size_t p = 0; p < k; ++p)
      if (res.is_joiner[p]) parts.unite(part_rep[p], top[static_cast<std::size_t>(out[p])]);
    ++iterations;
    UMC_ASSERT_MSG(iterations < 100000, "merging must make progress");
  }
  return {iterations, ledger.rounds()};
}

void BM_StarMerge(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  const WeightedGraph g = random_tree(n, rng);
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
  const RootedTree t(g, ids, 0);

  std::pair<int, std::int64_t> det{}, rnd{};
  minoragg::StarMergeScratch scratch;
  for (auto _ : state) {
    det = merge_to_one(t, [&scratch](std::span<const int> out, minoragg::Ledger& l) {
      minoragg::StarMergeResult res;
      minoragg::star_merge(out, l, res, scratch);
      return res;
    });
    Rng coin(99);
    rnd = merge_to_one(t, [&coin](std::span<const int> out, minoragg::Ledger& l) {
      return random_star_merge(out, coin, l);
    });
    benchmark::DoNotOptimize(det);
  }
  state.counters["n"] = n;
  state.counters["det_iterations"] = det.first;
  state.counters["det_rounds"] = static_cast<double>(det.second);
  state.counters["rand_iterations"] = rnd.first;
  state.counters["rand_rounds"] = static_cast<double>(rnd.second);
}

BENCHMARK(BM_StarMerge)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
