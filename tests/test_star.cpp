// Tests for the star 2-respecting machinery (Section 7): interest lists
// (Lemma 32), the interest-degree bound (Lemma 30), the mutual-interest
// graph, and the full star algorithm (Theorem 27) against the oracle.

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/interest.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/star.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

/// spider(k, len, ...) graph (root 0, path i = nodes [1+i*len, 1+(i+1)*len))
/// as a StarInstance with every path edge a candidate.
StarInstance spider_instance(const WeightedGraph& g, int k, NodeId len) {
  StarInstance inst;
  inst.graph = g;
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  inst.root = 0;
  for (int i = 0; i < k; ++i) {
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
    for (NodeId j = 0; j < len; ++j) {
      nodes.push_back(1 + static_cast<NodeId>(i) * len + j);
      const EdgeId e = static_cast<EdgeId>(i) * len + j;  // generator order
      edges.push_back(e);
      inst.origin[static_cast<std::size_t>(e)] = e;
    }
    inst.path_nodes.push_back(std::move(nodes));
    inst.path_edges.push_back(std::move(edges));
  }
  std::vector<EdgeId> tree;
  for (const auto& pe : inst.path_edges) tree.insert(tree.end(), pe.begin(), pe.end());
  fill_cut_row(inst, tree);
  return inst;
}

/// Oracle: 1-respecting min plus all pairs on DIFFERENT paths.
CutResult star_oracle(const StarInstance& inst) {
  std::vector<EdgeId> tree;
  for (const auto& pe : inst.path_edges) tree.insert(tree.end(), pe.begin(), pe.end());
  const RootedTree t(inst.graph, tree, inst.root);
  CutResult best;
  for (const EdgeId e : tree)
    best.absorb(CutResult{reference_cut_pair(t, e, e), e, kNoEdge});
  for (std::size_t i = 0; i < inst.path_edges.size(); ++i)
    for (std::size_t j = i + 1; j < inst.path_edges.size(); ++j)
      for (const EdgeId e : inst.path_edges[i])
        for (const EdgeId f : inst.path_edges[j])
          best.absorb(CutResult{reference_cut_pair(t, e, f), e, f});
  return best;
}

TEST(Interest, ListsContainStronglyInterestedPaths) {
  // Construct a spider where path 0 is overwhelmingly connected to path 1.
  Rng rng(3);
  WeightedGraph g = spider(4, 6, 0, rng);
  // Heavy cross edges between bottom of path 0 and path 1.
  const NodeId bottom0 = 6, mid1 = 1 + 6 + 3;
  g.add_edge(bottom0, mid1, 1000);
  g.add_edge(3, 1 + 6 + 1, 500);
  // Light noise to path 2.
  g.add_edge(bottom0, 1 + 2 * 6 + 2, 1);
  const StarInstance inst = spider_instance(g, 4, 6);
  minoragg::Ledger ledger;
  PathRows lists;
  interest_lists(inst, ledger, lists);
  // Path 0's cross weight is ~1501 toward path 1 vs 1 toward path 2.
  EXPECT_TRUE(std::find(lists[0].begin(), lists[0].end(), 1) != lists[0].end());
  EXPECT_TRUE(std::find(lists[1].begin(), lists[1].end(), 0) != lists[1].end());
  EXPECT_TRUE(std::find(lists[0].begin(), lists[0].end(), 2) == lists[0].end());
}

TEST(Interest, Lemma30DegreeBoundHolds) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const int k = 8;
    const NodeId len = 5;
    WeightedGraph g = spider(k, len, 120, rng);
    randomize_weights(g, 1, 50, rng);
    const StarInstance inst = spider_instance(g, k, len);
    minoragg::Ledger ledger;
    PathRows lists;
  interest_lists(inst, ledger, lists);
    const std::size_t bound =
        static_cast<std::size_t>(10 * (ceil_log2(static_cast<std::uint64_t>(g.n())) + 1));
    for (std::size_t i = 0; i < lists.size(); ++i) EXPECT_LE(lists[i].size(), bound);
  }
}

TEST(Interest, MutualGraphIsSymmetric) {
  // Rows {1, 2}, {0}, {0, 1}, {}.
  const PathRows lists{{0, 2, 3, 5, 5}, {1, 2, 0, 0, 1}};
  PathRows adj;
  interest_graph(lists, adj);
  const auto row = [&adj](std::size_t i) { return std::vector<int>(adj[i].begin(), adj[i].end()); };
  // 0-1 mutual; 0-2 only one-way (2 lists 0 but 0 lists 2 -> mutual!).
  EXPECT_EQ(row(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(row(1), (std::vector<int>{0}));   // 1-2 not mutual (1 doesn't list 2)
  EXPECT_EQ(row(2), (std::vector<int>{0}));
  EXPECT_TRUE(adj[3].empty());
}

TEST(Star, MatchesOracleOnRandomSpiders) {
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const int k = 2 + static_cast<int>(rng.next_below(5));
    const NodeId len = 2 + static_cast<NodeId>(rng.next_below(7));
    WeightedGraph g = spider(k, len, 4 * k * len, rng);
    randomize_weights(g, 1, 20, rng);
    const StarInstance inst = spider_instance(g, k, len);
    minoragg::Ledger ledger;
    const CutResult got = star_mincut(inst, ledger);
    const CutResult want = star_oracle(inst);
    EXPECT_EQ(got.value, want.value) << "trial " << trial;
  }
}

TEST(Star, LongPathsTriggerRecursiveP2P) {
  Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const int k = 3;
    const NodeId len = 20;
    WeightedGraph g = spider(k, len, 300, rng);
    randomize_weights(g, 1, 9, rng);
    const StarInstance inst = spider_instance(g, k, len);
    minoragg::Ledger ledger;
    EXPECT_EQ(star_mincut(inst, ledger).value, star_oracle(inst).value);
  }
}

TEST(Star, SinglePathReturnsOneRespecting) {
  Rng rng(13);
  WeightedGraph g = spider(2, 4, 0, rng);
  // Treat it as one star with k = 1 by merging both paths' description into
  // a single-path instance is not representable; instead test k = 2 with no
  // cross edges: the best must be a 1-respecting cut.
  const StarInstance inst = spider_instance(g, 2, 4);
  minoragg::Ledger ledger;
  const CutResult got = star_mincut(inst, ledger);
  EXPECT_EQ(got.value, 1);  // unit weights: any leaf edge
  EXPECT_EQ(got.f, kNoEdge);
}

TEST(Star, InterestDegreeCounterRecorded) {
  Rng rng(17);
  WeightedGraph g = spider(6, 5, 150, rng);
  randomize_weights(g, 1, 9, rng);
  const StarInstance inst = spider_instance(g, 6, 5);
  minoragg::Ledger ledger;
  (void)star_mincut(inst, ledger);
  EXPECT_GE(ledger.counter("max_interest_degree"), 0);
  EXPECT_GT(ledger.rounds(), 0);
}

}  // namespace
}  // namespace umc::mincut
