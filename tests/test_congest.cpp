// Tests for the CONGEST simulator, BFS trees, part-wise aggregation (the
// Theorem 17 engine), edge coloring (Lemma 35), the gather baseline, and
// compile-cost measurement.

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/stoer_wagner.hpp"
#include "congest/bfs_tree.hpp"
#include "congest/compile.hpp"
#include "congest/congest_net.hpp"
#include "congest/edge_coloring.hpp"
#include "congest/gather_baseline.hpp"
#include "congest/partwise.hpp"
#include "graph/generators.hpp"
#include "graph/minors.hpp"
#include "graph/properties.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::congest {
namespace {

TEST(CongestNet, DeliversAndCountsRounds) {
  const WeightedGraph g = path_graph(3);
  CongestNetwork net(g);
  net.send(0, 0, 42);
  net.send(2, 1, 7, 9);
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 2u);
  EXPECT_EQ(net.rounds(), 1);
  // Next round: inbox is cleared.
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_EQ(net.rounds(), 2);
}

TEST(CongestNet, EnforcesOneMessagePerEdgeDirection) {
  const WeightedGraph g = path_graph(2);
  CongestNetwork net(g);
  net.send(0, 0, 1);
  EXPECT_THROW(net.send(0, 0, 2), invariant_error);  // same direction
  net.send(1, 0, 3);                                 // opposite direction is fine
  net.end_round();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(0).size(), 1u);
}

TEST(BfsTree, DepthsMatchDistancesAndRoundsMatchEccentricity) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const WeightedGraph g = erdos_renyi_connected(40, 0.08, rng);
    CongestNetwork net(g);
    const BfsTree t = build_bfs_tree(net, 3);
    const auto dist = bfs_distances(g, 3);
    for (NodeId v = 0; v < g.n(); ++v)
      EXPECT_EQ(t.depth[static_cast<std::size_t>(v)], dist[static_cast<std::size_t>(v)]);
    const int ecc = *std::max_element(dist.begin(), dist.end());
    EXPECT_EQ(t.height, ecc);
    EXPECT_LE(t.rounds_used, ecc + 1);
  }
}

TEST(Partwise, ValuesCorrectOnSmallParts) {
  // 4x4 grid, four 2x2 quadrant parts (each connected).
  const WeightedGraph g = grid_graph(4, 4);
  std::vector<int> part(16);
  for (NodeId r = 0; r < 4; ++r)
    for (NodeId c = 0; c < 4; ++c) part[static_cast<std::size_t>(r * 4 + c)] = (r / 2) * 2 + c / 2;
  std::vector<std::int64_t> input(16);
  for (NodeId v = 0; v < 16; ++v) input[static_cast<std::size_t>(v)] = v;
  CongestNetwork net(g);
  const PartwiseResult res = partwise_aggregate(net, part, input);
  EXPECT_EQ(res.num_parts, 4);
  EXPECT_EQ(res.num_large_parts, 0);
  // Quadrant sums.
  EXPECT_EQ(res.value[0], 0 + 1 + 4 + 5);
  EXPECT_EQ(res.value[15], 10 + 11 + 14 + 15);
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(res.value[static_cast<std::size_t>(v)],
              res.value[static_cast<std::size_t>((v / 8) * 8 + (v % 4) / 2 * 2)]);
  }
}

TEST(Partwise, LargePartsUsePipelinedGlobalTree) {
  // One giant part covering a long path: must take the large-part route.
  const NodeId n = 100;
  const WeightedGraph g = path_graph(n);
  std::vector<int> part(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> input(static_cast<std::size_t>(n), 2);
  CongestNetwork net(g);
  const PartwiseResult res = partwise_aggregate(net, part, input);
  EXPECT_EQ(res.num_large_parts, 1);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(res.value[static_cast<std::size_t>(v)], 2 * n);
}

TEST(Partwise, MixedPartsAndOutsiders) {
  Rng rng(5);
  const WeightedGraph g = grid_graph(10, 10);
  const std::vector<int> part = sqrt_carve_partition(g, 17);
  std::vector<std::int64_t> input(100);
  for (auto& x : input) x = rng.next_in(1, 9);
  CongestNetwork net(g);
  const PartwiseResult res = partwise_aggregate(net, part, input);
  // Reference sums.
  std::vector<std::int64_t> ref(100, 0);
  for (NodeId v = 0; v < 100; ++v) ref[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] += input[static_cast<std::size_t>(v)];
  for (NodeId v = 0; v < 100; ++v)
    EXPECT_EQ(res.value[static_cast<std::size_t>(v)],
              ref[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])]);
}

TEST(Partwise, SqrtCarvePartsAreConnectedAndSized) {
  Rng rng(7);
  for (const auto& g : {grid_graph(12, 12), erdos_renyi_connected(150, 0.05, rng)}) {
    const std::vector<int> part = sqrt_carve_partition(g, 3);
    int k = 0;
    for (const int p : part) {
      EXPECT_GE(p, 0);
      k = std::max(k, p + 1);
    }
    // Each part induces a connected subgraph.
    for (int p = 0; p < k; ++p) {
      std::vector<bool> keep(static_cast<std::size_t>(g.n()), false);
      NodeId count = 0;
      for (NodeId v = 0; v < g.n(); ++v) {
        if (part[static_cast<std::size_t>(v)] == p) {
          keep[static_cast<std::size_t>(v)] = true;
          ++count;
        }
      }
      ASSERT_GT(count, 0);
      const auto sub = umc::induced_subgraph(g, keep);
      EXPECT_TRUE(is_connected(sub.graph)) << "part " << p;
    }
  }
}

TEST(Partwise, CarvePartitionCostIsSqrtNotDiameter) {
  // On the √n-carve partition every part is an O(√n)-node connected blob,
  // so PA costs O(√n) even when D = n (parts aggregate internally).
  const WeightedGraph path = path_graph(400);
  CongestNetwork net1(path);
  const std::vector<std::int64_t> in1(400, 1);
  const auto r1 = partwise_aggregate(net1, sqrt_carve_partition(path, 1), in1);
  EXPECT_EQ(r1.num_large_parts, 0);
  EXPECT_LE(r1.rounds_used, 8 * 20 + 8);  // O(√400) with small constants
}

TEST(CompileCost, PerRoundCostIsDiameterPlusSqrtN) {
  // The compile multiplier includes global consensus, so D shows up: a path
  // (D = 399) costs far more per MA round than a 20x20 grid (D = 38).
  minoragg::Ledger ledger;
  ledger.charge(1);
  const CompileCost path_cost = measure_compile_cost(path_graph(400), ledger, 1);
  const CompileCost grid_cost = measure_compile_cost(grid_graph(20, 20), ledger, 1);
  EXPECT_GT(path_cost.pa_rounds_general, static_cast<std::int64_t>(path_cost.diameter));
  EXPECT_GT(path_cost.pa_rounds_general, 2 * grid_cost.pa_rounds_general);
}

TEST(EdgeColoring, ProperWithAtMostTwoDeltaMinusOneColors) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const WeightedGraph g = erdos_renyi_connected(30, 0.15, rng);
    std::vector<int> color;
    const EdgeColoring ec = deterministic_edge_coloring(g, color);
    EXPECT_LE(ec.num_colors, std::max(1, 2 * ec.max_degree - 1));
    for (NodeId v = 0; v < g.n(); ++v) {
      std::vector<bool> seen(static_cast<std::size_t>(ec.num_colors), false);
      for (const AdjEntry& a : g.adj(v)) {
        const int c = color[static_cast<std::size_t>(a.edge)];
        EXPECT_FALSE(seen[static_cast<std::size_t>(c)]) << "conflict at node " << v;
        seen[static_cast<std::size_t>(c)] = true;
      }
    }
  }
}

TEST(GatherBaseline, RoundsScaleWithEdgesAndValueIsExact) {
  Rng rng(11);
  WeightedGraph g = erdos_renyi_connected(40, 0.2, rng);
  randomize_weights(g, 1, 9, rng);
  const GatherBaselineResult res = gather_exact_mincut(g, 0);
  EXPECT_EQ(res.min_cut_value, baseline::stoer_wagner(g).value);
  // Gathering m descriptors into one root takes >= m / deg(root) rounds.
  EXPECT_GE(res.rounds_used, g.m() / std::max(1, g.degree(0)));
  EXPECT_LE(res.rounds_used, static_cast<std::int64_t>(g.m()) + exact_diameter(g) + 2);
}

TEST(CompileCost, CombinesLedgerWithMeasuredPa) {
  minoragg::Ledger ledger;
  ledger.charge(10);
  const WeightedGraph g = grid_graph(8, 8);
  const CompileCost cost = measure_compile_cost(g, ledger, 5);
  EXPECT_EQ(cost.ma_rounds, 10);
  EXPECT_GT(cost.pa_rounds_general, 0);
  EXPECT_EQ(cost.congest_rounds_general(), 10 * cost.pa_rounds_general);
  EXPECT_GT(cost.congest_rounds_excluded_minor(), 0);
}

}  // namespace
}  // namespace umc::congest
