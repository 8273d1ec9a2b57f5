// Tests for rooted trees, LCA, heavy-light decomposition (Definition 2,
// Facts 3 & 4), centroids (Fact 41), and spanning-tree constructions.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "tree/centroid.hpp"
#include "tree/hld.hpp"
#include "tree/lca.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc {
namespace {

RootedTree tree_of(const WeightedGraph& g, NodeId root = 0) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
  return RootedTree(g, ids, root);
}

TEST(RootedTree, PathStructure) {
  const WeightedGraph g = path_graph(5);
  const RootedTree t = tree_of(g);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(0), kNoNode);
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_EQ(t.depth(4), 4);
  EXPECT_EQ(t.subtree_size(0), 5);
  EXPECT_EQ(t.subtree_size(4), 1);
  EXPECT_TRUE(t.is_ancestor(1, 4));
  EXPECT_TRUE(t.is_ancestor(2, 2));
  EXPECT_FALSE(t.is_ancestor(4, 1));
}

TEST(RootedTree, TopBottomOfEdges) {
  const WeightedGraph g = star_graph(4);
  const RootedTree t = tree_of(g);
  for (EdgeId e = 0; e < g.m(); ++e) {
    EXPECT_EQ(t.top(e), 0);
    EXPECT_NE(t.bottom(e), 0);
  }
}

TEST(RootedTree, RejectsNonSpanningEdges) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<EdgeId> not_spanning = {0, 1};
  EXPECT_THROW(RootedTree(g, not_spanning, 0), invariant_error);
  const std::vector<EdgeId> cycle = {0, 1, 2, 3};
  EXPECT_THROW(RootedTree(g, cycle, 0), invariant_error);
}

TEST(Lca, AgainstBruteForceOnRandomTrees) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const WeightedGraph g = random_tree(60, rng);
    const RootedTree t = tree_of(g);
    const LcaOracle lca(t);
    for (int q = 0; q < 200; ++q) {
      const NodeId u = static_cast<NodeId>(rng.next_below(60));
      const NodeId v = static_cast<NodeId>(rng.next_below(60));
      // Brute force: climb both to the root, intersect.
      std::set<NodeId> anc;
      for (NodeId x = u; x != kNoNode; x = t.parent(x)) anc.insert(x);
      NodeId expected = v;
      while (anc.count(expected) == 0) expected = t.parent(expected);
      EXPECT_EQ(lca.lca(u, v), expected);
      EXPECT_EQ(lca.distance(u, v),
                t.depth(u) + t.depth(v) - 2 * t.depth(expected));
    }
  }
}

TEST(Hld, HeavyEdgesFollowLargestSubtree) {
  // Caterpillar: a path with pendant leaves; heavy edges are the spine.
  WeightedGraph g(7);
  g.add_edge(0, 1);  // spine
  g.add_edge(1, 2);  // spine
  g.add_edge(2, 3);  // spine
  g.add_edge(0, 4);  // leaf
  g.add_edge(1, 5);  // leaf
  g.add_edge(2, 6);  // leaf
  const RootedTree t = tree_of(g);
  const HeavyLightDecomposition hld(t);
  EXPECT_TRUE(hld.is_heavy(0));
  EXPECT_TRUE(hld.is_heavy(1));
  EXPECT_FALSE(hld.is_heavy(3));  // {0,4}
  EXPECT_EQ(hld.hl_depth(4), 1);
  EXPECT_EQ(hld.hl_depth(3), 0);
}

TEST(Hld, Fact3LightEdgesLogarithmicallyMany) {
  Rng rng(23);
  for (const NodeId n : {2, 10, 100, 500}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    const int bound = floor_log2(static_cast<std::uint64_t>(n)) + 1;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_LE(hld.hl_depth(v), bound);
      EXPECT_EQ(static_cast<int>(hld.info(v).light_edges.size()), hld.hl_depth(v));
    }
  }
}

TEST(Hld, Fact4LcaFromInfoMatchesOracle) {
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    const WeightedGraph g = random_tree(80, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    const LcaOracle lca(t);
    for (int q = 0; q < 300; ++q) {
      const NodeId u = static_cast<NodeId>(rng.next_below(80));
      const NodeId v = static_cast<NodeId>(rng.next_below(80));
      const NodeId expected = lca.lca(u, v);
      EXPECT_EQ(HeavyLightDecomposition::lca_from_info(u, hld.info(u), v, hld.info(v)),
                expected);
      EXPECT_EQ(HeavyLightDecomposition::lca_depth_from_info(hld.info(u), hld.info(v)),
                t.depth(expected));
    }
  }
}

TEST(Hld, HlPathsPartitionTreeEdges) {
  Rng rng(31);
  const WeightedGraph g = random_tree(120, rng);
  const RootedTree t = tree_of(g);
  const HeavyLightDecomposition hld(t);
  // Every edge belongs to exactly one HL-path; edges of one path share the
  // path's HL-depth and form a descending chain.
  std::set<std::pair<EdgeId, EdgeId>> seen;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const EdgeId pid = hld.hl_path_id(e);
    seen.insert({pid, e});
    if (pid != kNoEdge) {
      EXPECT_EQ(hld.hl_depth_edge(pid), hld.hl_depth_edge(e));
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.m()));
}

/// Checks RootedTree (fresh and rebuilt in place) and its decomposition
/// against a per-node reference computed straight from the host adjacency:
/// parents by BFS, children in adjacency order, preorder by recursion,
/// subtree sizes by counting, heavy children as the first largest child,
/// and HL-info by walking each node's root path.
void expect_matches_reference(const WeightedGraph& g, std::span<const EdgeId> tree,
                              NodeId root, RootedTree& reused) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  std::vector<bool> in_tree(static_cast<std::size_t>(g.m()), false);
  for (const EdgeId e : tree) in_tree[static_cast<std::size_t>(e)] = true;
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<EdgeId> parent_edge(n, kNoEdge);
  std::vector<int> depth(n, -1);
  std::vector<NodeId> bfs = {root};
  depth[static_cast<std::size_t>(root)] = 0;
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    for (const AdjEntry& a : g.adj(bfs[i])) {
      const std::size_t to = static_cast<std::size_t>(a.to);
      if (!in_tree[static_cast<std::size_t>(a.edge)] || depth[to] >= 0) continue;
      depth[to] = depth[static_cast<std::size_t>(bfs[i])] + 1;
      parent[to] = bfs[i];
      parent_edge[to] = a.edge;
      bfs.push_back(a.to);
    }
  }
  std::vector<std::vector<NodeId>> kids(n);
  for (NodeId v = 0; v < g.n(); ++v)
    for (const AdjEntry& a : g.adj(v))
      if (in_tree[static_cast<std::size_t>(a.edge)] && a.to != parent[static_cast<std::size_t>(v)])
        kids[static_cast<std::size_t>(v)].push_back(a.to);
  std::vector<NodeId> pre;
  const std::function<void(NodeId)> visit = [&](NodeId v) {
    pre.push_back(v);
    for (const NodeId c : kids[static_cast<std::size_t>(v)]) visit(c);
  };
  visit(root);
  std::vector<NodeId> size(n, 1);
  for (std::size_t i = pre.size(); i-- > 1;)
    size[static_cast<std::size_t>(parent[static_cast<std::size_t>(pre[i])])] +=
        size[static_cast<std::size_t>(pre[i])];
  std::vector<NodeId> heavy(n, kNoNode);
  for (std::size_t v = 0; v < n; ++v)
    for (const NodeId c : kids[v])
      if (heavy[v] == kNoNode ||
          size[static_cast<std::size_t>(c)] > size[static_cast<std::size_t>(heavy[v])])
        heavy[v] = c;

  const RootedTree fresh(g, tree, root);
  reused.rebuild(g, tree, root);
  for (const RootedTree* t : {&fresh, static_cast<const RootedTree*>(&reused)}) {
    ASSERT_EQ(t->n(), g.n());
    EXPECT_EQ(std::vector<NodeId>(t->preorder().begin(), t->preorder().end()), pre);
    for (NodeId v = 0; v < g.n(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      EXPECT_EQ(t->parent(v), parent[i]);
      EXPECT_EQ(t->parents()[i], parent[i]);
      EXPECT_EQ(t->parent_edge(v), parent_edge[i]);
      EXPECT_EQ(t->depth(v), depth[i]);
      EXPECT_EQ(t->subtree_size(v), size[i]);
      EXPECT_EQ(pre[static_cast<std::size_t>(t->preorder_index(v))], v);
      EXPECT_EQ(std::vector<NodeId>(t->children(v).begin(), t->children(v).end()), kids[i]);
      // is_ancestor(a, v) iff a lies on v's root path.
      std::vector<bool> on_path(n, false);
      for (NodeId x = v; x != kNoNode; x = parent[static_cast<std::size_t>(x)])
        on_path[static_cast<std::size_t>(x)] = true;
      for (NodeId a = 0; a < g.n(); ++a)
        EXPECT_EQ(t->is_ancestor(a, v), on_path[static_cast<std::size_t>(a)]);
    }
    const HeavyLightDecomposition hld(*t);
    for (NodeId v = 0; v < g.n(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      EXPECT_EQ(hld.heavy_child(v), heavy[i]);
      std::vector<LightEdge> light;
      for (NodeId x = v; parent[static_cast<std::size_t>(x)] != kNoNode;
           x = parent[static_cast<std::size_t>(x)]) {
        const NodeId p = parent[static_cast<std::size_t>(x)];
        if (heavy[static_cast<std::size_t>(p)] != x)
          light.push_back(LightEdge{p, x, depth[static_cast<std::size_t>(p)],
                                    depth[static_cast<std::size_t>(x)]});
      }
      std::reverse(light.begin(), light.end());
      const HlInfo info = hld.info(v);
      EXPECT_EQ(info.depth, depth[i]);
      EXPECT_EQ(std::vector<LightEdge>(info.light_edges.begin(), info.light_edges.end()), light);
      EXPECT_EQ(hld.hl_depth(v), static_cast<int>(light.size()));
    }
  }
}

TEST(RootedTree, FlatLayoutMatchesPerNodeReference) {
  RootedTree reused;  // rebuilt in place for every case below
  // A root with three children whose subtrees tie in size, added out of id
  // order: children keep adjacency order and the first of them is heavy.
  WeightedGraph tie(7);
  tie.add_edge(0, 3);
  tie.add_edge(0, 1);
  tie.add_edge(0, 2);
  tie.add_edge(1, 4);
  tie.add_edge(2, 5);
  tie.add_edge(3, 6);
  const std::vector<EdgeId> all = {0, 1, 2, 3, 4, 5};
  expect_matches_reference(tie, all, 0, reused);
  const RootedTree t(tie, all, 0);
  EXPECT_EQ(std::vector<NodeId>(t.children(0).begin(), t.children(0).end()),
            (std::vector<NodeId>{3, 1, 2}));
  EXPECT_EQ(HeavyLightDecomposition(t).heavy_child(0), 3);

  Rng rng(43);
  for (const NodeId n : {1, 2, 5, 30, 120}) {
    const WeightedGraph g = random_tree(n, rng);
    std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
    for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
    expect_matches_reference(g, ids, static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n))),
                             reused);
  }
  // Spanning trees inside graphs with non-tree edges, including grids,
  // where a central root has four children and many sizes tie.
  for (int trial = 0; trial < 4; ++trial) {
    const WeightedGraph g = random_planar_grid(7, 6, 0.4, rng);
    const std::vector<EdgeId> tree = wilson_random_spanning_tree(g, rng);
    expect_matches_reference(g, tree, static_cast<NodeId>(rng.next_below(42)), reused);
  }
  const WeightedGraph grid = grid_graph(5, 5);
  expect_matches_reference(grid, bfs_spanning_tree(grid, 12), 12, reused);

  // Re-rooting in place over the tree's own edge list.
  const std::vector<EdgeId> bfs = bfs_spanning_tree(grid, 0);
  reused.rebuild(grid, bfs, 0);
  reused.rebuild(grid, reused.tree_edges(), 18);
  const RootedTree fresh(grid, bfs, 18);
  EXPECT_EQ(std::vector<NodeId>(reused.preorder().begin(), reused.preorder().end()),
            std::vector<NodeId>(fresh.preorder().begin(), fresh.preorder().end()));
  EXPECT_EQ(std::vector<EdgeId>(reused.tree_edges().begin(), reused.tree_edges().end()), bfs);
}

TEST(Centroid, Fact41OnFamilies) {
  Rng rng(37);
  for (const NodeId n : {1, 2, 3, 10, 101, 256}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    const NodeId c = find_centroid(t);
    EXPECT_LE(largest_component_after_removal(t, c), n / 2);
  }
  // A path's centroid is its middle.
  const WeightedGraph p = path_graph(9);
  EXPECT_EQ(find_centroid(tree_of(p)), 4);
}

TEST(Spanning, BfsTreeDepthEqualsEccentricity) {
  const WeightedGraph g = grid_graph(5, 5);
  const auto tree = bfs_spanning_tree(g, 0);
  EXPECT_EQ(tree.size(), 24u);
  const RootedTree t(g, tree, 0);
  int max_depth = 0;
  for (NodeId v = 0; v < g.n(); ++v) max_depth = std::max(max_depth, t.depth(v));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(max_depth, *std::max_element(dist.begin(), dist.end()));
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(t.depth(v), dist[static_cast<std::size_t>(v)]);
}

TEST(Spanning, KruskalMatchesKnownMst) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 5);
  g.add_edge(3, 0, 4);
  g.add_edge(0, 2, 3);
  const auto mst = kruskal_mst(g);
  Weight total = 0;
  for (const EdgeId e : mst) total += g.edge(e).w;
  // {0,1}=1, {1,2}=2, then {0,2}=3 closes a cycle, so {3,0}=4 joins node 3.
  EXPECT_EQ(total, 1 + 2 + 4);
}

TEST(Spanning, KruskalEqualWeightsBreakTiesByEdgeId) {
  // The packing producer's determinism contract leans on a strict total
  // order (cost, edge id); kruskal_mst pins the same rule. On a cycle of
  // equal weights the MST must drop exactly the highest-id edge — any
  // unstable sort or different tie-break picks a different tree.
  WeightedGraph g(5);
  for (NodeId v = 0; v < 5; ++v) g.add_edge(v, static_cast<NodeId>((v + 1) % 5), 7);
  const auto mst = kruskal_mst(g);
  EXPECT_EQ(mst, (std::vector<EdgeId>{0, 1, 2, 3}));

  // Two parallel-shaped choices per join, all weight 1: ids {0,2,4} are the
  // unique (weight, id)-minimal spanning set.
  WeightedGraph h(4);
  h.add_edge(0, 1, 1);  // id 0: picked
  h.add_edge(1, 0, 1);  // id 1: tie, loses to 0
  h.add_edge(1, 2, 1);  // id 2: picked
  h.add_edge(2, 0, 1);  // id 3: tie, loses to 2
  h.add_edge(2, 3, 1);  // id 4: picked
  h.add_edge(3, 1, 1);  // id 5: tie, loses to 4
  EXPECT_EQ(kruskal_mst(h), (std::vector<EdgeId>{0, 2, 4}));
}

TEST(Spanning, WilsonProducesSpanningTrees) {
  Rng rng(41);
  const WeightedGraph g = grid_graph(6, 6);
  for (int i = 0; i < 5; ++i) {
    const auto tree = wilson_random_spanning_tree(g, rng);
    EXPECT_EQ(tree.size(), static_cast<std::size_t>(g.n() - 1));
    const RootedTree t(g, tree, 0);  // throws if not spanning
    EXPECT_EQ(t.subtree_size(0), g.n());
  }
}

TEST(MathUtil, LogHelpers) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(7), 2);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(8), 3);
  EXPECT_EQ(ceil_log2(9), 4);
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_LE(log_star(1u << 16), 5);
}

}  // namespace
}  // namespace umc
