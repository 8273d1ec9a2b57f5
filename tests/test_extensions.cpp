// Tests for the extension modules: graph IO, cut witnesses, Karger-Stein,
// the new generators, and the Theorem 1 bullet-3/4 compile targets.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "baseline/karger_stein.hpp"
#include "baseline/stoer_wagner.hpp"
#include "congest/compile.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "mincut/two_respect.hpp"
#include "mincut/witness.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"

namespace umc {
namespace {

TEST(GraphIo, RoundTripPreservesEverything) {
  Rng rng(3);
  WeightedGraph g = erdos_renyi_connected(20, 0.2, rng);
  randomize_weights(g, 1, 99, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Expected<WeightedGraph> read = try_read_edge_list(ss);
  ASSERT_TRUE(read.has_value()) << read.error().to_string();
  const WeightedGraph& h = read.value();
  ASSERT_EQ(h.n(), g.n());
  ASSERT_EQ(h.m(), g.m());
  for (EdgeId e = 0; e < g.m(); ++e) {
    EXPECT_EQ(h.edge(e).u, g.edge(e).u);
    EXPECT_EQ(h.edge(e).v, g.edge(e).v);
    EXPECT_EQ(h.edge(e).w, g.edge(e).w);
  }
}

TEST(GraphIo, ParsesCommentsAndDefaultWeights) {
  std::stringstream ss("# header comment\n\n3\n0 1\n1 2 7  # inline comment\n");
  const Expected<WeightedGraph> g = try_read_edge_list(ss);
  ASSERT_TRUE(g.has_value()) << g.error().to_string();
  EXPECT_EQ(g->n(), 3);
  EXPECT_EQ(g->m(), 2);
  EXPECT_EQ(g->edge(0).w, 1);
  EXPECT_EQ(g->edge(1).w, 7);
}

TEST(GraphIo, RejectsMalformedInput) {
  const auto code = [](const char* text) {
    std::stringstream ss(text);
    const Expected<WeightedGraph> g = try_read_edge_list(ss);
    EXPECT_FALSE(g.has_value()) << text;
    return g.has_value() ? std::optional<ErrorCode>{} : g.error().code;
  };
  EXPECT_EQ(code("3\n0 5 2\n"), ErrorCode::kRange);  // endpoint out of range
  EXPECT_EQ(code("3\n0 1 2 junk\n"), ErrorCode::kParse);
  EXPECT_EQ(code("# only comments\n"), ErrorCode::kParse);
  EXPECT_EQ(code("2\n0\n"), ErrorCode::kParse);  // missing second endpoint
  EXPECT_EQ(try_read_edge_list_file("/nonexistent/path/graph.txt").error().code,
            ErrorCode::kIo);
}

TEST(Witness, MatchesReportedValueOnRandomGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedGraph g = random_connected(25, 70, rng);
    randomize_weights(g, 1, 20, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    minoragg::Ledger ledger;
    const mincut::CutResult r = mincut::two_respecting_mincut(g, tree, 0, ledger);
    const RootedTree t(g, tree, 0);
    const mincut::CutWitness w = mincut::cut_witness(t, r);
    EXPECT_EQ(w.value, r.value);
    // The witness side is non-trivial.
    int inside = 0;
    for (const bool b : w.side) inside += b ? 1 : 0;
    EXPECT_GT(inside, 0);
    EXPECT_LT(inside, g.n());
    // Crossing weights sum to the value.
    Weight sum = 0;
    for (const EdgeId e : w.crossing) sum += g.edge(e).w;
    EXPECT_EQ(sum, r.value);
  }
}

TEST(Witness, NestedPairCarvesARing) {
  // Path 0-1-2-3-4: pair ({0,1}, {2,3}) carves the ring {1, 2}.
  const WeightedGraph g = path_graph(5);
  std::vector<EdgeId> tree = {0, 1, 2, 3};
  const RootedTree t(g, tree, 0);
  const mincut::CutWitness w = mincut::cut_witness(t, 0, 2);
  EXPECT_FALSE(w.side[0]);
  EXPECT_TRUE(w.side[1]);
  EXPECT_TRUE(w.side[2]);
  EXPECT_FALSE(w.side[3]);
  EXPECT_FALSE(w.side[4]);
  EXPECT_EQ(w.value, 2);  // the two tree edges themselves
}

TEST(KargerStein, MatchesStoerWagner) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    WeightedGraph g = erdos_renyi_connected(16, 0.3, rng);
    randomize_weights(g, 1, 15, rng);
    const Weight want = baseline::stoer_wagner(g).value;
    const Weight got = baseline::karger_stein_min_cut(g, 24, rng);
    EXPECT_GE(got, want);
    EXPECT_EQ(got, want) << "24 repeats on n=16 should find the optimum";
  }
}

TEST(Generators, CompleteBipartiteAndBinaryTree) {
  const WeightedGraph kb = complete_bipartite(3, 4);
  EXPECT_EQ(kb.n(), 7);
  EXPECT_EQ(kb.m(), 12);
  EXPECT_TRUE(is_connected(kb));
  const WeightedGraph bt = binary_tree(15);
  EXPECT_EQ(bt.m(), 14);
  EXPECT_EQ(exact_diameter(bt), 6);  // leaf-to-leaf through the root
}

TEST(Generators, RingExpanderHasSmallDiameter) {
  Rng rng(9);
  const WeightedGraph g = ring_expander(256, 3, rng);
  EXPECT_TRUE(is_connected(g));
  // Ring alone: D = 128; with 3 random matchings: D = O(log n).
  EXPECT_LE(exact_diameter(g), 16);
}

TEST(CompileTargets, WellConnectedModelIsSubSqrtN) {
  Rng rng(11);
  const WeightedGraph g = ring_expander(1024, 3, rng);
  minoragg::Ledger ledger;
  ledger.charge(1);
  const congest::CompileCost cost = congest::measure_compile_cost(g, ledger, 1);
  // 2^(2*sqrt(log2 n)) << sqrt(n) for large n; at n=1024 they are close,
  // and the model value must at least be positive and sub-linear.
  EXPECT_GT(cost.pa_rounds_well_connected, 1);
  EXPECT_LT(cost.pa_rounds_well_connected, 1024);
  EXPECT_GT(cost.congest_rounds_well_connected(), 0);
}

}  // namespace
}  // namespace umc
