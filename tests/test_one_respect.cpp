// Tests for the distributed 1-respecting min-cut (Theorem 18) against the
// centralized reference on many graph families — including the round
// complexity claim (Õ(1) Minor-Aggregation rounds).

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/instance.hpp"
#include "mincut/one_respect.hpp"
#include "minoragg/tree_primitives.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

void check_against_reference(const WeightedGraph& g, NodeId root) {
  const auto tree = bfs_spanning_tree(g, root);
  const RootedTree t(g, tree, root);
  const HeavyLightDecomposition hld(t);
  const Instance inst = make_root_instance(g, tree, root);
  minoragg::Ledger ledger;
  std::vector<Weight> cut;
  const CutResult best = one_respecting_cuts(t, inst.origin, hld, ledger, cut);
  const auto ref = reference_cov1(t);
  for (const EdgeId e : tree)
    EXPECT_EQ(cut[static_cast<std::size_t>(e)], ref[static_cast<std::size_t>(e)])
        << "edge " << e;
  const auto best_ref = baseline::naive_one_respecting(t);
  EXPECT_EQ(best.value, best_ref.value);
  EXPECT_EQ(ledger.rounds(), one_respect_rounds(t, hld));
}

TEST(OneRespect, PathGraphWithChord) {
  WeightedGraph g = path_graph(8);
  g.add_edge(1, 6, 5);
  check_against_reference(g, 0);
}

TEST(OneRespect, GridFamily) {
  Rng rng(1);
  for (const auto& dims : {std::pair{3, 3}, std::pair{5, 7}, std::pair{8, 8}}) {
    WeightedGraph g = grid_graph(dims.first, dims.second);
    randomize_weights(g, 1, 20, rng);
    check_against_reference(g, 0);
  }
}

TEST(OneRespect, RandomGraphsManySeeds) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 5 + static_cast<NodeId>(rng.next_below(80));
    WeightedGraph g = random_connected(n, n - 1 + static_cast<EdgeId>(rng.next_below(120)), rng);
    randomize_weights(g, 1, 30, rng);
    check_against_reference(g, static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
}

TEST(OneRespect, TreeOnlyGraph) {
  Rng rng(3);
  WeightedGraph g = random_tree(40, rng);
  randomize_weights(g, 1, 9, rng);
  // On a tree, Cut(e) = w(e).
  const auto tree_ids = bfs_spanning_tree(g, 0);
  const RootedTree t(g, tree_ids, 0);
  const HeavyLightDecomposition hld(t);
  const Instance inst = make_root_instance(g, tree_ids, 0);
  minoragg::Ledger ledger;
  std::vector<Weight> cut;
  (void)one_respecting_cuts(t, inst.origin, hld, ledger, cut);
  for (const EdgeId e : tree_ids) EXPECT_EQ(cut[static_cast<std::size_t>(e)], g.edge(e).w);
}

TEST(OneRespect, CandidateFilteringRespectsOrigin) {
  // Mark only one tree edge as candidate: best must name it.
  WeightedGraph g = path_graph(5);
  g.add_edge(0, 4, 100);
  const std::vector<EdgeId> tree = {0, 1, 2, 3};  // the path itself
  const RootedTree t(g, tree, 0);
  const HeavyLightDecomposition hld(t);
  std::vector<EdgeId> origin(static_cast<std::size_t>(g.m()), kNoEdge);
  origin[2] = 2;  // only tree edge {2,3} is a candidate
  minoragg::Ledger ledger;
  std::vector<Weight> cut;
  const CutResult best = one_respecting_cuts(t, origin, hld, ledger, cut);
  EXPECT_EQ(best.e, 2);
  EXPECT_EQ(best.f, kNoEdge);
  EXPECT_EQ(best.value, 101);
}

TEST(OneRespect, RoundsGrowPolylogarithmically) {
  Rng rng(4);
  std::int64_t small_rounds = 0, large_rounds = 0;
  for (const NodeId n : {128, 8192}) {
    WeightedGraph g = random_connected(n, 2 * n, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    const RootedTree t(g, tree, 0);
    const HeavyLightDecomposition hld(t);
    const Instance inst = make_root_instance(g, tree, 0);
    minoragg::Ledger ledger;
    std::vector<Weight> cut;
    (void)one_respecting_cuts(t, inst.origin, hld, ledger, cut);
    (n == 128 ? small_rounds : large_rounds) = ledger.rounds();
  }
  // 64x more nodes, well under 4x more rounds.
  EXPECT_LT(large_rounds, 4 * small_rounds);
}

}  // namespace
}  // namespace umc::mincut
