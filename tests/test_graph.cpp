// Unit tests for the graph substrate: WeightedGraph, DSU, generators,
// structural properties, and minor operations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "contract_reference.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace umc {
namespace {

TEST(WeightedGraph, BasicConstruction) {
  WeightedGraph g(3);
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 0);
  const EdgeId e = g.add_edge(0, 1, 5);
  EXPECT_EQ(g.edge(e).w, 5);
  EXPECT_EQ(g.edge(e).other(0), 1);
  EXPECT_EQ(g.edge(e).other(1), 0);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(WeightedGraph, RejectsSelfLoopsAndBadWeights) {
  WeightedGraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), invariant_error);
  EXPECT_THROW(g.add_edge(0, 1, 0), invariant_error);
  EXPECT_THROW(g.add_edge(0, 1, -3), invariant_error);
}

TEST(WeightedGraph, ParallelEdgesAllowed) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 1, 3);
  EXPECT_EQ(g.m(), 2);
  EXPECT_EQ(g.weighted_degree(0), 5);
  EXPECT_EQ(g.total_weight(), 5);
}

TEST(WeightedGraph, AddNodeGrows) {
  WeightedGraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1);
  g.add_edge(0, v, 7);
  EXPECT_EQ(g.weighted_degree(v), 7);
}

TEST(WeightedGraph, AssignRebuildsInPlaceWithAddEdgeOrder) {
  // assign() must equal add_edge() on the same edges, adjacency order
  // included, also when it reuses a larger graph's rows.
  Rng rng(5);
  WeightedGraph reused = random_connected(30, 90, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const WeightedGraph want = random_connected(10 + 2 * trial, 25 + 5 * trial, rng);
    reused.assign(want.n(), want.edges());
    ASSERT_EQ(reused.n(), want.n());
    ASSERT_EQ(reused.m(), want.m());
    for (NodeId v = 0; v < want.n(); ++v) {
      ASSERT_EQ(reused.degree(v), want.degree(v));
      for (int i = 0; i < want.degree(v); ++i) {
        EXPECT_EQ(reused.adj(v)[static_cast<std::size_t>(i)].to,
                  want.adj(v)[static_cast<std::size_t>(i)].to);
        EXPECT_EQ(reused.adj(v)[static_cast<std::size_t>(i)].edge,
                  want.adj(v)[static_cast<std::size_t>(i)].edge);
      }
    }
  }
  const Edge loop[1] = {Edge{1, 1, 1}};
  EXPECT_THROW(reused.assign(3, loop), invariant_error);
}

TEST(WeightedGraph, ConcurrentFirstAdjacencyReadsAgree) {
  // The adjacency of a freshly grown graph is built on first read; several
  // threads reading it at once must see one complete build.
  Rng rng(9);
  const WeightedGraph g = random_connected(200, 800, rng);
  std::vector<std::int64_t> sums(4, 0);
  {
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < sums.size(); ++r) {
      readers.emplace_back([&g, &sums, r] {
        std::int64_t sum = 0;
        for (NodeId v = 0; v < g.n(); ++v)
          for (const AdjEntry& a : g.adj(v)) sum += a.to * 1000 + a.edge;
        sums[r] = sum;
      });
    }
    for (std::thread& t : readers) t.join();
  }
  std::int64_t want = 0;
  for (const Edge& e : g.edges()) want += (e.u + e.v) * 1000 + 2 * (&e - g.edges().data());
  for (const std::int64_t s : sums) EXPECT_EQ(s, want);
}

TEST(Dsu, UniteAndComponents) {
  Dsu d(5);
  EXPECT_EQ(d.num_components(), 5);
  EXPECT_TRUE(d.unite(0, 1));
  EXPECT_FALSE(d.unite(1, 0));
  EXPECT_TRUE(d.unite(2, 3));
  EXPECT_EQ(d.num_components(), 3);
  EXPECT_TRUE(d.same(0, 1));
  EXPECT_FALSE(d.same(0, 2));
  EXPECT_EQ(d.component_size(1), 2);
}

TEST(Generators, PathCycleStarComplete) {
  EXPECT_EQ(path_graph(5).m(), 4);
  EXPECT_EQ(cycle_graph(5).m(), 5);
  EXPECT_EQ(star_graph(5).m(), 4);
  EXPECT_EQ(complete_graph(5).m(), 10);
  EXPECT_TRUE(is_connected(path_graph(5)));
  EXPECT_EQ(exact_diameter(path_graph(5)), 4);
  EXPECT_EQ(exact_diameter(cycle_graph(6)), 3);
  EXPECT_EQ(exact_diameter(star_graph(5)), 2);
  EXPECT_EQ(exact_diameter(complete_graph(5)), 1);
}

TEST(Generators, GridShape) {
  const WeightedGraph g = grid_graph(3, 4);
  EXPECT_EQ(g.n(), 12);
  EXPECT_EQ(g.m(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 2 + 3);
}

TEST(Generators, RandomPlanarGridStaysConnectedAndPlanarSized) {
  Rng rng(1);
  const WeightedGraph g = random_planar_grid(8, 8, 0.7, rng);
  EXPECT_TRUE(is_connected(g));
  // Planar bound: m <= 3n - 6.
  EXPECT_LE(g.m(), 3 * g.n() - 6);
}

TEST(Generators, ErdosRenyiConnectedIsConnected) {
  Rng rng(7);
  for (int seed = 0; seed < 5; ++seed) {
    const WeightedGraph g = erdos_renyi_connected(40, 0.05, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(3);
  const WeightedGraph g = random_tree(30, rng);
  EXPECT_EQ(g.m(), 29);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomConnectedHasExactEdgeCount) {
  Rng rng(11);
  const WeightedGraph g = random_connected(25, 60, rng);
  EXPECT_EQ(g.m(), 60);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, DumbbellHasBridgeCut) {
  const WeightedGraph g = dumbbell(5, 3);
  EXPECT_EQ(g.n(), 13);
  EXPECT_TRUE(is_connected(g));
  // Removing any single bridge edge disconnects.
  EXPECT_GE(exact_diameter(g), 4);
}

TEST(Generators, KTreeEdgeCount) {
  Rng rng(5);
  const WeightedGraph g = ktree(20, 3, rng);
  // k-tree on n nodes: C(k+1,2) + (n-k-1)*k edges.
  EXPECT_EQ(g.m(), 6 + 16 * 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, DoubleBroomAndSpiderShapes) {
  Rng rng(2);
  const WeightedGraph db = double_broom(10, 15, rng);
  EXPECT_EQ(db.n(), 21);
  EXPECT_TRUE(is_connected(db));
  const WeightedGraph sp = spider(4, 6, 10, rng);
  EXPECT_EQ(sp.n(), 25);
  EXPECT_TRUE(is_connected(sp));
}

TEST(Generators, RandomizeWeightsInRange) {
  Rng rng(9);
  WeightedGraph g = grid_graph(4, 4);
  randomize_weights(g, 3, 17, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 3);
    EXPECT_LE(e.w, 17);
  }
}

TEST(Properties, ComponentsOfDisconnectedGraph) {
  WeightedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 3);
  const auto ids = component_ids(g);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[2], ids[3]);
  EXPECT_NE(ids[0], ids[2]);
  EXPECT_NE(ids[4], ids[0]);
}

TEST(Properties, ApproxDiameterWithinFactorTwo) {
  Rng rng(13);
  for (int i = 0; i < 5; ++i) {
    const WeightedGraph g = erdos_renyi_connected(30, 0.1, rng);
    const int exact = exact_diameter(g);
    const int approx = approx_diameter(g);
    EXPECT_LE(approx, exact);
    EXPECT_GE(2 * approx, exact);
  }
}

TEST(Properties, BfsDistancesOnPath) {
  const WeightedGraph g = path_graph(6);
  const auto d = bfs_distances(g, 2);
  EXPECT_EQ(d[0], 2);
  EXPECT_EQ(d[5], 3);
}

TEST(Minors, ContractKeepsParallelEdgesDropsSelfLoops) {
  WeightedGraph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(2, 3, 4);
  std::vector<bool> contract(4, false);
  contract[static_cast<std::size_t>(e01)] = true;
  const DerivedGraph d = contract_edges(g, contract);
  EXPECT_EQ(d.graph.n(), 3);
  EXPECT_EQ(d.graph.m(), 3);  // two parallel {01}-2 edges + {2,3}
  EXPECT_EQ(d.node_map[0], d.node_map[1]);
  // Contracting everything yields a single node with no edges.
  const DerivedGraph all = contract_edges(g, std::vector<bool>(4, true));
  EXPECT_EQ(all.graph.n(), 1);
  EXPECT_EQ(all.graph.m(), 0);
}

TEST(Minors, ContractPreservesTotalWeightOfKeptEdges) {
  Rng rng(21);
  WeightedGraph g = erdos_renyi_connected(20, 0.2, rng);
  randomize_weights(g, 1, 50, rng);
  std::vector<bool> contract(static_cast<std::size_t>(g.m()), false);
  for (EdgeId e = 0; e < g.m(); ++e) contract[static_cast<std::size_t>(e)] = rng.next_bool(0.3);
  const DerivedGraph d = contract_edges(g, contract);
  Weight kept = 0;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    if (!contract[static_cast<std::size_t>(e)] &&
        d.node_map[static_cast<std::size_t>(ed.u)] != d.node_map[static_cast<std::size_t>(ed.v)])
      kept += ed.w;
  }
  EXPECT_EQ(d.graph.total_weight(), kept);
  for (std::size_t i = 0; i < d.edge_origin.size(); ++i)
    EXPECT_EQ(d.graph.edge(static_cast<EdgeId>(i)).w, g.edge(d.edge_origin[i]).w);
}

TEST(Minors, InducedSubgraph) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 3);
  g.add_edge(3, 4, 4);
  std::vector<bool> keep = {true, true, true, false, false};
  const DerivedGraph d = induced_subgraph(g, keep);
  EXPECT_EQ(d.graph.n(), 3);
  EXPECT_EQ(d.graph.m(), 2);
  EXPECT_EQ(d.node_map[3], kNoNode);
  EXPECT_EQ(d.graph.total_weight(), 3);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = c.next_below(7);
    EXPECT_LT(v, 7u);
    const auto w = c.next_in(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace umc
