// Tests for the path-to-path 2-respecting min-cut (Section 6, Theorem 19):
// the Monge property (Fact 20), the separable decomposition (Lemma 22), and
// the full recursion, validated against the naive pair-enumeration oracle.

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/path_to_path.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

/// A double_broom graph (root 0; P = 1..len; Q = len+1..2len) as a
/// PathInstance where every path edge is a candidate.
PathInstance broom_instance(const WeightedGraph& g, NodeId len) {
  PathInstance inst;
  inst.graph = g;
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  inst.root = 0;
  for (NodeId i = 0; i < len; ++i) {
    inst.nodesP.push_back(1 + i);
    inst.edgesP.push_back(i);  // generator order: P edges are 0..len-1
    inst.origin[static_cast<std::size_t>(i)] = i;
    inst.nodesQ.push_back(len + 1 + i);
    inst.edgesQ.push_back(len + i);
    inst.origin[static_cast<std::size_t>(len + i)] = len + i;
  }
  std::vector<EdgeId> tree(inst.edgesP.begin(), inst.edgesP.end());
  tree.insert(tree.end(), inst.edgesQ.begin(), inst.edgesQ.end());
  fill_cut_row(inst, tree);
  return inst;
}

/// Oracle: min over pairs (e in P) x (f in Q) and 1-respecting cuts.
CutResult oracle(const PathInstance& inst) {
  std::vector<EdgeId> tree(inst.edgesP.begin(), inst.edgesP.end());
  tree.insert(tree.end(), inst.edgesQ.begin(), inst.edgesQ.end());
  const RootedTree t(inst.graph, tree, inst.root);
  CutResult best;
  for (const EdgeId e : tree) {
    if (inst.origin[static_cast<std::size_t>(e)] == kNoEdge) continue;
    best.absorb(CutResult{reference_cut_pair(t, e, e),
                          inst.origin[static_cast<std::size_t>(e)], kNoEdge});
  }
  for (const EdgeId e : inst.edgesP) {
    if (inst.origin[static_cast<std::size_t>(e)] == kNoEdge) continue;
    for (const EdgeId f : inst.edgesQ) {
      if (inst.origin[static_cast<std::size_t>(f)] == kNoEdge) continue;
      best.absorb(CutResult{reference_cut_pair(t, e, f),
                            inst.origin[static_cast<std::size_t>(e)],
                            inst.origin[static_cast<std::size_t>(f)]});
    }
  }
  return best;
}

void check(const PathInstance& inst) {
  minoragg::Ledger ledger;
  const CutResult got = path_to_path_mincut(inst, ledger);
  const CutResult want = oracle(inst);
  ASSERT_EQ(got.value, want.value);
  // The reported pair must actually achieve the reported value.
  std::vector<EdgeId> tree(inst.edgesP.begin(), inst.edgesP.end());
  tree.insert(tree.end(), inst.edgesQ.begin(), inst.edgesQ.end());
  const RootedTree t(inst.graph, tree, inst.root);
  // Map origins back to instance edge ids (origins == instance ids here).
  if (got.f == kNoEdge) {
    EXPECT_EQ(reference_cut_pair(t, got.e, got.e), got.value);
  } else {
    EXPECT_EQ(reference_cut_pair(t, got.e, got.f), got.value);
  }
}

TEST(PathToPath, Fact20MongePropertyHolds) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    WeightedGraph g = double_broom(8, 20, rng);
    randomize_weights(g, 1, 9, rng);
    const PathInstance inst = broom_instance(g, 8);
    std::vector<EdgeId> tree(inst.edgesP.begin(), inst.edgesP.end());
    tree.insert(tree.end(), inst.edgesQ.begin(), inst.edgesQ.end());
    const RootedTree t(g, tree, 0);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t i2 = i; i2 < 8; ++i2)
        for (std::size_t j = 0; j < 8; ++j)
          for (std::size_t j2 = j; j2 < 8; ++j2) {
            const Weight lhs = reference_cut_pair(t, inst.edgesP[i], inst.edgesQ[j]) +
                               reference_cut_pair(t, inst.edgesP[i2], inst.edgesQ[j2]);
            const Weight rhs = reference_cut_pair(t, inst.edgesP[i2], inst.edgesQ[j]) +
                               reference_cut_pair(t, inst.edgesP[i], inst.edgesQ[j2]);
            ASSERT_LE(lhs, rhs);
          }
  }
}

TEST(PathToPath, BaseCaseShortPaths) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId len = 2 + static_cast<NodeId>(rng.next_below(8));
    WeightedGraph g = double_broom(len, 3 * len, rng);
    randomize_weights(g, 1, 15, rng);
    check(broom_instance(g, len));
  }
}

TEST(PathToPath, RecursiveLongPaths) {
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    const NodeId len = 12 + static_cast<NodeId>(rng.next_below(40));
    WeightedGraph g = double_broom(len, 5 * len, rng);
    randomize_weights(g, 1, 25, rng);
    check(broom_instance(g, len));
  }
}

TEST(PathToPath, SeparableInstanceNoCrossInterior) {
  // Cross edges only at boundary nodes: exercises Lemma 22.
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId len = 15;
    WeightedGraph g = double_broom(len, 0, rng);
    randomize_weights(g, 1, 9, rng);
    // Add boundary-touching cross edges only: top/bottom of either path.
    const NodeId top_p = 1, bot_p = len, top_q = len + 1, bot_q = 2 * len;
    for (int c = 0; c < 8; ++c) {
      const NodeId q = len + 1 + static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(len)));
      const NodeId p = 1 + static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(len)));
      switch (c % 4) {
        case 0: g.add_edge(top_p, q, rng.next_in(1, 9)); break;
        case 1: g.add_edge(bot_p, q, rng.next_in(1, 9)); break;
        case 2: g.add_edge(p == top_q ? bot_p : top_q, p, rng.next_in(1, 9)); break;
        default: g.add_edge(bot_q == p ? top_p : bot_q, p, rng.next_in(1, 9)); break;
      }
    }
    check(broom_instance(g, len));
  }
}

TEST(PathToPath, SameWeightTies) {
  Rng rng(17);
  WeightedGraph g = double_broom(20, 60, rng);  // all unit weights
  check(broom_instance(g, 20));
}

TEST(PathToPath, NonCandidateConnectorsAreNeverReported) {
  Rng rng(19);
  WeightedGraph g = double_broom(14, 30, rng);
  randomize_weights(g, 1, 9, rng);
  PathInstance inst = broom_instance(g, 14);
  // Demote the topmost edges of both paths to connectors.
  inst.origin[static_cast<std::size_t>(inst.edgesP[0])] = kNoEdge;
  inst.origin[static_cast<std::size_t>(inst.edgesQ[0])] = kNoEdge;
  minoragg::Ledger ledger;
  const CutResult got = path_to_path_mincut(inst, ledger);
  EXPECT_NE(got.e, inst.edgesP[0]);
  EXPECT_NE(got.e, inst.edgesQ[0]);
  EXPECT_EQ(got.value, oracle(inst).value);
}

TEST(PathToPath, RecursionDepthAndRoundsArePolylog) {
  Rng rng(23);
  WeightedGraph g = double_broom(200, 1200, rng);
  randomize_weights(g, 1, 50, rng);
  const PathInstance inst = broom_instance(g, 200);
  minoragg::Ledger ledger;
  (void)path_to_path_mincut(inst, ledger);
  EXPECT_LE(ledger.counter("max_p2p_depth"),
            ceil_log2(200) + 2);  // |P| halves per level
  // Polylog rounds: generous explicit cap documents the scale.
  EXPECT_LT(ledger.rounds(), 1'000'000);
  EXPECT_GT(ledger.rounds(), 0);
}

TEST(PathToPath, DegenerateTinyPaths) {
  Rng rng(29);
  for (const NodeId len : {1, 2, 3}) {
    WeightedGraph g = double_broom(len, 2, rng);
    check(broom_instance(g, len));
  }
}

}  // namespace
}  // namespace umc::mincut
