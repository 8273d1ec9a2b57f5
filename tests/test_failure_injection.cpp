// Failure injection: malformed inputs must be rejected loudly (the
// simulators validate model invariants even in release builds) and
// degenerate-but-valid inputs must produce correct answers.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "baseline/naive_two_respect.hpp"
#include "baseline/stoer_wagner.hpp"
#include "congest/gather_baseline.hpp"
#include "congest/partwise.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/two_respect.hpp"
#include "minoragg/boruvka.hpp"
#include "minoragg/network.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"

namespace umc {
namespace {

TEST(FailureInjection, DisconnectedGraphsAreRejected) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW((void)bfs_spanning_tree(g, 0), invariant_error);
  EXPECT_THROW((void)exact_diameter(g), invariant_error);
  minoragg::Ledger ledger;
  const std::vector<std::int64_t> cost = {1, 1};
  EXPECT_THROW((void)minoragg::boruvka_mst(g, cost, ledger), invariant_error);
}

TEST(FailureInjection, NonSpanningTreeEdgeSetsAreRejected) {
  WeightedGraph g = cycle_graph(5);
  const std::vector<EdgeId> too_few = {0, 1};
  EXPECT_THROW(RootedTree(g, too_few, 0), invariant_error);
  const std::vector<EdgeId> duplicate = {0, 0, 1, 2};
  EXPECT_THROW(RootedTree(g, duplicate, 0), invariant_error);
  const std::vector<EdgeId> with_cycle = {0, 1, 2, 4};  // {0,1,2} + closing edge
  // Either a cycle (not spanning) or fine depending on ids; assert it
  // throws when it genuinely fails to span.
  WeightedGraph h(4);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  h.add_edge(2, 0);
  h.add_edge(2, 3);
  const std::vector<EdgeId> cyc = {0, 1, 2};
  EXPECT_THROW(RootedTree(h, cyc, 0), invariant_error);
}

TEST(FailureInjection, MincutRequiresTwoNodes) {
  WeightedGraph g(1);
  Rng rng(1);
  minoragg::Ledger ledger;
  EXPECT_THROW((void)baseline::stoer_wagner(g), invariant_error);
  EXPECT_THROW((void)mincut::exact_mincut(g, rng, ledger), invariant_error);
}

TEST(FailureInjection, MismatchedVectorSizesAreRejected) {
  const WeightedGraph g = path_graph(4);
  minoragg::Ledger ledger;
  minoragg::Network net(g, ledger);
  const std::vector<bool> wrong_contract(2, false);  // m == 3
  const std::vector<std::int64_t> x(4, 0);
  EXPECT_THROW(
      (net.round<SumAgg, SumAgg>(wrong_contract, x,
                                 [](EdgeId, const std::int64_t&, const std::int64_t&) {
                                   return std::pair<std::int64_t, std::int64_t>{0, 0};
                                 })),
      invariant_error);
  const std::vector<std::int64_t> cost_too_short = {1, 1};
  EXPECT_THROW((void)minoragg::boruvka_mst(g, cost_too_short, ledger), invariant_error);
}

TEST(FailureInjection, PartwiseRejectsSizeMismatch) {
  const WeightedGraph g = path_graph(5);
  congest::CongestNetwork net(g);
  const std::vector<int> part(3, 0);  // wrong size
  const std::vector<std::int64_t> input(5, 1);
  EXPECT_THROW((void)congest::partwise_aggregate(net, part, input), invariant_error);
}

TEST(Degenerate, TwoAndThreeNodeMinCuts) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    WeightedGraph g2(2);
    g2.add_edge(0, 1, rng.next_in(1, 50));
    minoragg::Ledger l2;
    EXPECT_EQ(mincut::exact_mincut(g2, rng, l2).value, g2.total_weight());

    WeightedGraph g3 = complete_graph(3);
    randomize_weights(g3, 1, 30, rng);
    minoragg::Ledger l3;
    EXPECT_EQ(mincut::exact_mincut(g3, rng, l3).value, baseline::stoer_wagner(g3).value);
  }
}

TEST(Degenerate, PathAndStarAndCycleTopologies) {
  Rng rng(11);
  for (WeightedGraph g : {path_graph(12), star_graph(12), cycle_graph(12)}) {
    randomize_weights(g, 1, 40, rng);
    minoragg::Ledger ledger;
    EXPECT_EQ(mincut::exact_mincut(g, rng, ledger).value, baseline::stoer_wagner(g).value);
  }
}

TEST(Degenerate, HugeWeightsDoNotOverflow) {
  // Weights near 2^40 with n = 16: intermediate cut sums stay well inside
  // int64 (the library assumes w(e) in [poly(n)], comfortably satisfied).
  Rng rng(13);
  WeightedGraph g = erdos_renyi_connected(16, 0.4, rng);
  randomize_weights(g, (1LL << 38), (1LL << 40), rng);
  const auto tree = bfs_spanning_tree(g, 0);
  minoragg::Ledger ledger;
  const mincut::CutResult got = mincut::two_respecting_mincut(g, tree, 0, ledger);
  const RootedTree t(g, tree, 0);
  EXPECT_EQ(got.value, baseline::naive_two_respecting(t).value);
  EXPECT_GT(got.value, 0);
}

TEST(Degenerate, HeavilyParallelMultigraph) {
  // 4 nodes, 40 parallel edges: contraction/self-loop handling under stress.
  Rng rng(17);
  WeightedGraph g(4);
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng.next_below(4));
    NodeId v = static_cast<NodeId>(rng.next_below(4));
    if (u == v) v = (v + 1) % 4;
    g.add_edge(u, v, rng.next_in(1, 5));
  }
  if (!is_connected(g)) GTEST_SKIP();
  minoragg::Ledger ledger;
  EXPECT_EQ(mincut::exact_mincut(g, rng, ledger).value, baseline::stoer_wagner(g).value);
}

TEST(Degenerate, SingleEdgeBridgeDominatedGraphs) {
  // Two stars joined by one bridge — the min cut is the bridge; BFS trees
  // have depth 2 and the centroid lands on a hub.
  WeightedGraph g(10);
  for (NodeId v = 1; v < 5; ++v) g.add_edge(0, v, 100);
  for (NodeId v = 6; v < 10; ++v) g.add_edge(5, v, 100);
  g.add_edge(0, 5, 3);
  Rng rng(19);
  minoragg::Ledger ledger;
  const auto got = mincut::exact_mincut(g, rng, ledger);
  EXPECT_EQ(got.value, 3);
}

// ---------------------------------------------------------------------------
// Untrusted ingestion: malformed edge lists are recoverable Errors with the
// right code and line number, never aborts or garbage graphs.

Expected<WeightedGraph> parse(const std::string& text) {
  std::istringstream in(text);
  return try_read_edge_list(in);
}

TEST(Ingestion, RejectsNegativeAndZeroWeights) {
  const Expected<WeightedGraph> neg = parse("3\n0 1 -3\n");
  ASSERT_FALSE(neg);
  EXPECT_EQ(neg.error().code, ErrorCode::kRange);
  EXPECT_EQ(neg.error().line, 2);
  const Expected<WeightedGraph> zero = parse("3\n0 1 0\n");
  ASSERT_FALSE(zero);
  EXPECT_EQ(zero.error().code, ErrorCode::kRange);
}

TEST(Ingestion, WeightBoundsPreventCutSumOverflow) {
  // 2^32 is the documented max (cut sums over <= 2^30 edges stay < 2^63);
  // exactly at the bound parses, one past it is a range error, and a token
  // that does not even fit int64 is an overflow error, not a parse error.
  const Expected<WeightedGraph> at = parse("2\n0 1 4294967296\n");
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at.value().edge(0).w, Weight{1} << 32);
  const Expected<WeightedGraph> past = parse("2\n0 1 4294967297\n");
  ASSERT_FALSE(past);
  EXPECT_EQ(past.error().code, ErrorCode::kRange);
  const Expected<WeightedGraph> huge = parse("2\n0 1 99999999999999999999999\n");
  ASSERT_FALSE(huge);
  EXPECT_EQ(huge.error().code, ErrorCode::kOverflow);
}

TEST(Ingestion, RejectsStructurallyMalformedFiles) {
  EXPECT_EQ(parse("").error().code, ErrorCode::kParse);           // no header
  EXPECT_EQ(parse("abc\n").error().code, ErrorCode::kParse);      // bad header
  EXPECT_EQ(parse("4 7\n").error().code, ErrorCode::kParse);      // 2-token header
  EXPECT_EQ(parse("-1\n").error().code, ErrorCode::kRange);       // negative n
  EXPECT_EQ(parse("3\n0\n").error().code, ErrorCode::kParse);     // 1-token edge
  EXPECT_EQ(parse("3\n0 1 2 3\n").error().code, ErrorCode::kParse);
  EXPECT_EQ(parse("3\n0 x\n").error().code, ErrorCode::kParse);   // non-numeric
  EXPECT_EQ(parse("3\n0 5\n").error().code, ErrorCode::kRange);   // endpoint >= n
  EXPECT_EQ(parse("3\n1 1\n").error().code, ErrorCode::kRange);   // self-loop
  EXPECT_EQ(try_read_edge_list_file("/nonexistent/graph.txt").error().code,
            ErrorCode::kIo);
}

TEST(Ingestion, AcceptsCommentsBlanksAndDefaultWeights) {
  const Expected<WeightedGraph> g = parse("# header comment\n3\n\n0 1  # w defaults\n1 2 5\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g.value().n(), 3);
  EXPECT_EQ(g.value().m(), 2);
  EXPECT_EQ(g.value().edge(0).w, 1);
  EXPECT_EQ(g.value().edge(1).w, 5);
}

TEST(Ingestion, AcceptsCrlfLoneCrAndTrailingWhitespace) {
  // The same tiny graph in every line-ending convention (plus stray blanks)
  // must parse to identical topology — files written on any OS are valid.
  const std::string lf = "3\n0 1 4\n1 2 7\n";
  const std::string crlf = "3\r\n0 1 4\r\n1 2 7\r\n";
  const std::string lone_cr = "3\r0 1 4\r1 2 7\r";
  const std::string padded = "  3  \t\r\n\t0 1 4   \r\n 1 2 7\t\r\n";
  for (const std::string& text : {lf, crlf, lone_cr, padded}) {
    const Expected<WeightedGraph> g = parse(text);
    ASSERT_TRUE(g.has_value()) << g.error().to_string();
    EXPECT_EQ(g.value().n(), 3);
    ASSERT_EQ(g.value().m(), 2);
    EXPECT_EQ(g.value().edge(0).w, 4);
    EXPECT_EQ(g.value().edge(1).w, 7);
  }
  // CRLF line numbering must match the LF file's: error on (1-based) line 3.
  const Expected<WeightedGraph> bad = parse("3\r\n0 1 4\r\n0 9\r\n");
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, ErrorCode::kRange);
  EXPECT_EQ(bad.error().line, 3);
}

TEST(Ingestion, MalformedCorpusCoversEveryErrorCode) {
  // One corpus entry per reachable Error code path — the structured codes
  // are API surface (the CLI and the fault-sweep tool branch on them), so a
  // refactor that merges or drops a path must fail here.
  struct Case {
    const char* text;
    ErrorCode code;
    int line;
  };
  const Case corpus[] = {
      // kParse paths
      {"", ErrorCode::kParse, 0},                        // missing header
      {"# only comments\n\n", ErrorCode::kParse, 0},     // still no header
      {"abc\n", ErrorCode::kParse, 1},                   // non-numeric header
      {"4 7\n", ErrorCode::kParse, 1},                   // multi-token header
      {"3\n0\n", ErrorCode::kParse, 2},                  // 1-token edge line
      {"3\n0 1 2 3\n", ErrorCode::kParse, 2},            // 4-token edge line
      {"3\n0 x\n", ErrorCode::kParse, 2},                // non-numeric endpoint
      {"3\n0 1 two\n", ErrorCode::kParse, 2},            // non-numeric weight
      {"3\n0 1 5z\n", ErrorCode::kParse, 2},             // trailing junk in token
      {"3\r\n0 1\r\n0 2 3 4 5\r\n", ErrorCode::kParse, 3},  // malformed under CRLF
      // kRange paths
      {"-1\n", ErrorCode::kRange, 1},                    // negative node count
      {"1073741825\n", ErrorCode::kRange, 1},            // node count > 2^30
      {"3\n0 5\n", ErrorCode::kRange, 2},                // endpoint >= n
      {"3\n-1 1\n", ErrorCode::kRange, 2},               // negative endpoint
      {"3\n1 1\n", ErrorCode::kRange, 2},                // self-loop
      {"3\n0 1 0\n", ErrorCode::kRange, 2},              // zero weight
      {"3\n0 1 -2\n", ErrorCode::kRange, 2},             // negative weight
      {"2\n0 1 4294967297\n", ErrorCode::kRange, 2},     // weight > 2^32
      // kOverflow paths
      {"99999999999999999999\n", ErrorCode::kOverflow, 1},    // header overflow
      {"3\n99999999999999999999 1\n", ErrorCode::kOverflow, 2},
      {"3\n0 1 99999999999999999999\n", ErrorCode::kOverflow, 2},
  };
  for (const Case& c : corpus) {
    const Expected<WeightedGraph> got = parse(c.text);
    ASSERT_FALSE(got.has_value()) << "corpus entry accepted: " << c.text;
    EXPECT_EQ(got.error().code, c.code) << c.text << " -> " << got.error().to_string();
    EXPECT_EQ(got.error().line, c.line) << c.text << " -> " << got.error().to_string();
  }
  // kIo: the only non-parse code, reached via the file entry point.
  EXPECT_EQ(try_read_edge_list_file("/nonexistent/graph.txt").error().code, ErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// The guard battery on the one graph shape it checks without a packing
// replay: with n == 2 the only cut is every edge, recounted directly.

TEST(VerifyMinCut, TwoNodeGuardRecountsDirectly) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 17);
  Rng rng(1);
  minoragg::Ledger ledger;
  const mincut::GuardConfig config;
  mincut::ExactMinCutResult got = mincut::exact_mincut(g, rng, ledger, config.packing);
  EXPECT_EQ(got.value, 17);
  EXPECT_TRUE(mincut::verify_mincut_result(g, 1, config, got).empty());

  got.value = 18;
  const std::vector<std::string> failures = mincut::verify_mincut_result(g, 1, config, got);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("cut-cov mismatch"), std::string::npos) << failures[0];
}

TEST(Degenerate, GatherBaselineOnStar) {
  // Star with root at the hub: every edge is one hop from the root.
  const WeightedGraph g = star_graph(30);
  const auto res = congest::gather_exact_mincut(g, 0);
  EXPECT_EQ(res.min_cut_value, 1);
  // 29 descriptors over 29 edges, injected at the hub or one hop away.
  EXPECT_LE(res.rounds_used, 32);
}

}  // namespace
}  // namespace umc
