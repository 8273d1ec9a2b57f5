// End-to-end tests for the between-subtree algorithm (Theorem 39) and the
// general 2-respecting min-cut (Theorem 40) against the naive oracle — the
// paper's central deterministic result.

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/subtree_instance.hpp"
#include "mincut/two_respect.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

void check_general(const WeightedGraph& g, std::span<const EdgeId> tree, NodeId root) {
  minoragg::Ledger ledger;
  const CutResult got = two_respecting_mincut(g, tree, root, ledger);
  const RootedTree t(g, tree, root);
  const CutResult want = baseline::naive_two_respecting(t);
  ASSERT_EQ(got.value, want.value);
  // Reported pair must achieve the value.
  const Weight check = got.f == kNoEdge ? reference_cut_pair(t, got.e, got.e)
                                        : reference_cut_pair(t, got.e, got.f);
  EXPECT_EQ(check, got.value);
}

TEST(BetweenSubtree, MatchesOracleAcrossBranches) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const NodeId n = 16 + static_cast<NodeId>(rng.next_below(30));
    WeightedGraph g = random_connected(n, 3 * n, rng);
    randomize_weights(g, 1, 15, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    const RootedTree t(g, tree, 0);
    if (t.children(0).size() < 2) continue;  // needs >= 2 branches
    Instance inst = make_root_instance(g, tree, 0);
    minoragg::Ledger ledger;
    const CutResult got =
        root_between_subtree_mincut(RootedTree(inst.graph, tree, 0), inst, ledger);

    // Oracle restricted to cross-branch pairs plus 1-respecting cuts.
    std::vector<int> branch(static_cast<std::size_t>(g.n()), -1);
    {
      int next = 0;
      for (const NodeId c : t.children(0)) branch[static_cast<std::size_t>(c)] = next++;
      for (const NodeId v : t.preorder()) {
        if (v == 0 || branch[static_cast<std::size_t>(v)] != -1) continue;
        branch[static_cast<std::size_t>(v)] = branch[static_cast<std::size_t>(t.parent(v))];
      }
    }
    CutResult want;
    for (const EdgeId e : tree) want.absorb({reference_cut_pair(t, e, e), e, kNoEdge});
    for (std::size_t i = 0; i < tree.size(); ++i) {
      for (std::size_t j = i + 1; j < tree.size(); ++j) {
        if (branch[static_cast<std::size_t>(t.bottom(tree[i]))] ==
            branch[static_cast<std::size_t>(t.bottom(tree[j]))])
          continue;
        want.absorb({reference_cut_pair(t, tree[i], tree[j]), tree[i], tree[j]});
      }
    }
    EXPECT_EQ(got.value, want.value) << "trial " << trial;
  }
}

TEST(TwoRespect, TinyGraphs) {
  Rng rng(5);
  for (const NodeId n : {2, 3, 4, 5}) {
    for (int trial = 0; trial < 5; ++trial) {
      WeightedGraph g = random_connected(n, std::min<EdgeId>(2 * n, n * (n - 1) / 2), rng);
      randomize_weights(g, 1, 9, rng);
      const auto tree = bfs_spanning_tree(g, 0);
      check_general(g, tree, 0);
    }
  }
}

TEST(TwoRespect, RandomGraphsBfsTrees) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 10 + static_cast<NodeId>(rng.next_below(40));
    WeightedGraph g = random_connected(n, 2 * n + static_cast<EdgeId>(rng.next_below(60)), rng);
    randomize_weights(g, 1, 25, rng);
    check_general(g, bfs_spanning_tree(g, 0), 0);
  }
}

TEST(TwoRespect, RandomGraphsRandomSpanningTrees) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const NodeId n = 10 + static_cast<NodeId>(rng.next_below(30));
    WeightedGraph g = random_connected(n, 3 * n, rng);
    randomize_weights(g, 1, 40, rng);
    const auto tree = wilson_random_spanning_tree(g, rng);
    check_general(g, tree, static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
}

TEST(TwoRespect, GridsAndPlanar) {
  Rng rng(13);
  for (int trial = 0; trial < 4; ++trial) {
    WeightedGraph g = random_planar_grid(5, 6, 0.5, rng);
    randomize_weights(g, 1, 12, rng);
    check_general(g, bfs_spanning_tree(g, 0), 0);
  }
}

TEST(TwoRespect, PathHeavyTreesExerciseDeepChains) {
  Rng rng(17);
  // Caterpillar-ish: a long path plus random chords.
  WeightedGraph g = path_graph(40);
  for (int c = 0; c < 60; ++c) {
    const NodeId u = static_cast<NodeId>(rng.next_below(40));
    NodeId v = static_cast<NodeId>(rng.next_below(40));
    if (u == v) v = (v + 1) % 40;
    g.add_edge(std::min(u, v), std::max(u, v), rng.next_in(1, 9));
  }
  std::vector<EdgeId> tree(39);
  std::iota(tree.begin(), tree.end(), EdgeId{0});
  check_general(g, tree, 0);
}

TEST(TwoRespect, UnweightedMultigraph) {
  Rng rng(19);
  WeightedGraph g(8);
  // Deliberate parallel edges.
  for (int c = 0; c < 30; ++c) {
    const NodeId u = static_cast<NodeId>(rng.next_below(8));
    NodeId v = static_cast<NodeId>(rng.next_below(8));
    if (u == v) v = (v + 1) % 8;
    g.add_edge(u, v);
  }
  // Ensure connectivity with a path.
  std::vector<EdgeId> tree;
  Dsu dsu(8);
  for (EdgeId e = 0; e < g.m(); ++e)
    if (dsu.unite(g.edge(e).u, g.edge(e).v)) tree.push_back(e);
  for (NodeId v = 0; v + 1 < 8; ++v)
    if (!dsu.same(v, v + 1)) {
      tree.push_back(g.add_edge(v, v + 1));
      dsu.unite(v, v + 1);
    }
  check_general(g, tree, 0);
}

TEST(TwoRespect, RecursionDepthLogarithmic) {
  Rng rng(23);
  WeightedGraph g = random_connected(200, 600, rng);
  randomize_weights(g, 1, 30, rng);
  minoragg::Ledger ledger;
  (void)two_respecting_mincut(g, bfs_spanning_tree(g, 0), 0, ledger);
  EXPECT_LE(ledger.counter("max_general_depth"), ceil_log2(200) + 2);
  EXPECT_LE(ledger.counter("max_beta"), ceil_log2(200) + 2);  // |Virt| = O(log n)
}

TEST(TwoRespect, GoldenResultsAndLedgers) {
  // Pinned answers and full ledgers on three fixed instances: a planar
  // grid, an ER graph and a long path-heavy spider (Monge recursion depth
  // 3). Any change to a sub-instance construction, a charge or a counter
  // shows up here, not only a wrong value.
  struct Golden {
    Weight value;
    EdgeId e, f;
    const char* ledger;
  };
  const Golden want[] = {
      {60, 23, 9,
       R"({"rounds": 33347, "counters": {"cv_iterations": 780, "hl_merge_iterations": 753, )"
       R"("max_beta": 3, "max_general_depth": 6, "max_interest_colors": 3, )"
       R"("max_interest_degree": 3, "max_p2p_depth": 2, "subtree_star_calls": 87}})"},
      {15, 145, kNoEdge,
       R"({"rounds": 27933, "counters": {"cv_iterations": 642, "hl_merge_iterations": 603, )"
       R"("max_beta": 2, "max_general_depth": 4, "max_interest_colors": 4, )"
       R"("max_interest_degree": 4, "max_p2p_depth": 1, "subtree_star_calls": 86}})"},
      {5, 62, 60,
       R"({"rounds": 22034, "counters": {"cv_iterations": 826, "hl_merge_iterations": 826, )"
       R"("max_beta": 3, "max_general_depth": 7, "max_interest_colors": 1, )"
       R"("max_interest_degree": 1, "max_p2p_depth": 3, "subtree_star_calls": 72}})"},
  };
  for (int which = 0; which < 3; ++which) {
    WeightedGraph g;
    std::vector<EdgeId> tree;
    if (which == 0) {
      Rng rng(101);
      g = random_planar_grid(8, 8, 0.4, rng);
      randomize_weights(g, 1, 100, rng);
      tree = wilson_random_spanning_tree(g, rng);
    } else if (which == 1) {
      Rng rng(202);
      g = erdos_renyi_connected(64, 0.12, rng);
      randomize_weights(g, 1, 50, rng);
      tree = bfs_spanning_tree(g, 0);
    } else {
      Rng rng(303);
      g = spider(3, 40, 150, rng);  // tree = the three 40-edge legs
      randomize_weights(g, 1, 20, rng);
      tree.resize(120);
      std::iota(tree.begin(), tree.end(), EdgeId{0});
    }
    minoragg::Ledger ledger;
    const CutResult got = two_respecting_mincut(g, tree, 0, ledger);
    const Golden& w = want[which];
    EXPECT_EQ(got.value, w.value) << "instance " << which;
    EXPECT_EQ(got.e, w.e) << "instance " << which;
    EXPECT_EQ(got.f, w.f) << "instance " << which;
    EXPECT_EQ(ledger.to_json(), w.ledger) << "instance " << which;
  }
}

}  // namespace
}  // namespace umc::mincut
