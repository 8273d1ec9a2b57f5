// Tests for the distributed 1-respecting min-cut (Theorem 18) against the
// centralized reference on many graph families — including the round
// complexity claim (Õ(1) Minor-Aggregation rounds).

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/instance.hpp"
#include "mincut/interest.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/path_to_path.hpp"
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

/// A spider with legs of the given lengths plus random chords, as a
/// StarInstance with its Cut row filled. Weights 1..3 make equal Cut
/// values common, so the order the minimum is read in shows. Node ids are a
/// random permutation (root included) unless `canonical`, which numbers
/// the root 0 and the legs' nodes in order, top to bottom. About one tree
/// edge in five is no candidate.
StarInstance random_spider(const std::vector<NodeId>& lens, bool canonical, Rng& rng) {
  NodeId n = 1;
  for (const NodeId len : lens) n += len;
  std::vector<NodeId> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), NodeId{0});
  if (!canonical) rng.shuffle(label);
  StarInstance inst;
  WeightedGraph g(n);
  inst.root = label[0];
  std::vector<EdgeId> tree;
  NodeId next = 1;
  for (const NodeId len : lens) {
    std::vector<NodeId>& nodes = inst.path_nodes.emplace_back();
    std::vector<EdgeId>& edges = inst.path_edges.emplace_back();
    NodeId up = inst.root;
    for (NodeId j = 0; j < len; ++j) {
      const NodeId v = label[static_cast<std::size_t>(next++)];
      edges.push_back(g.add_edge(up, v, rng.next_in(1, 3)));
      nodes.push_back(v);
      tree.push_back(edges.back());
      up = v;
    }
  }
  const auto chords = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  for (int c = 0; c < chords; ++c) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) g.add_edge(u, v, rng.next_in(1, 3));
  }
  inst.graph = std::move(g);
  inst.is_virtual.assign(static_cast<std::size_t>(n), false);
  inst.origin.assign(static_cast<std::size_t>(inst.graph.m()), kNoEdge);
  for (const EdgeId e : tree)
    if (rng.next_bool(0.8)) inst.origin[static_cast<std::size_t>(e)] = e;
  fill_cut_row(inst, tree);
  return inst;
}

/// The tree-free spider read (twice: a first sighting and a repeat of its
/// Lemma 47 charge) against the route it replaces, hl_construct +
/// carried_one_respecting_cuts on a RootedTree of the legs: the same
/// ledger and the same CutResult.
void expect_spider_read_matches_tree(CutRowSource source, const InstanceCore& inst,
                                     std::span<const SpiderLeg> legs) {
  std::vector<EdgeId> tree;
  for (const SpiderLeg& leg : legs) tree.insert(tree.end(), leg.edges.begin(), leg.edges.end());
  const RootedTree t(inst.graph, tree, inst.root);
  HeavyLightDecomposition hld;
  minoragg::Ledger want_ledger;
  minoragg::hl_construct(t, want_ledger, hld);
  const CutResult want = carried_one_respecting_cuts(source, t, hld, inst, want_ledger);
  EXPECT_EQ(spider_one_respect_rounds(legs), one_respect_rounds(t, hld));
  for (int repeat = 0; repeat < 2; ++repeat) {
    minoragg::Ledger got_ledger;
    const CutResult got = carried_spider_cuts(source, inst, legs, got_ledger);
    EXPECT_EQ(got_ledger.to_json(), want_ledger.to_json()) << "legs " << legs.size();
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.e, want.e);
    EXPECT_EQ(got.f, want.f);
  }
}

TEST(OneRespect, SpiderReadMatchesTreeRoute) {
  // Random labelled spiders of 1-6 legs, each leg 1-90 nodes (so path
  // pairs fall on both sides of the (|P|, |Q|) table bound), as a star and,
  // for their first two legs, as a canonically numbered path instance.
  Rng rng(6);
  int pairs = 0, long_pairs = 0;
  for (int trial = 0; trial < 240; ++trial) {
    std::vector<NodeId> lens(1 + rng.next_below(6));
    for (NodeId& len : lens) len = static_cast<NodeId>(rng.next_in(1, 90));
    const StarInstance star = random_spider(lens, /*canonical=*/false, rng);
    std::vector<SpiderLeg> legs;
    for (int i = 0; i < star.k(); ++i)
      legs.push_back(SpiderLeg{star.path_nodes[static_cast<std::size_t>(i)],
                               star.path_edges[static_cast<std::size_t>(i)]});
    expect_spider_read_matches_tree(CutRowSource::kStar, star, legs);
    if (lens.size() < 2) continue;

    const StarInstance two = random_spider({lens[0], lens[1]}, /*canonical=*/true, rng);
    PathInstance pair;
    static_cast<InstanceCore&>(pair) = two;
    pair.nodesP = two.path_nodes[0];
    pair.edgesP = two.path_edges[0];
    pair.nodesQ = two.path_nodes[1];
    pair.edgesQ = two.path_edges[1];
    const std::array<SpiderLeg, 2> pq{SpiderLeg{pair.nodesP, pair.edgesP},
                                      SpiderLeg{pair.nodesQ, pair.edgesQ}};
    ASSERT_TRUE(canonical_path_pair(pair.root, pq));
    expect_spider_read_matches_tree(CutRowSource::kPair, pair, pq);
    ++pairs;
    const auto side = static_cast<NodeId>(minoragg::detail::kHlPathPairSide);
    if (lens[0] > side || lens[1] > side) ++long_pairs;
  }
  EXPECT_GT(pairs - long_pairs, 0) << "no path pair read the (|P|, |Q|) table";
  EXPECT_GT(long_pairs, 0) << "no path pair went through the parent-array table";
}

TEST(OneRespect, CanonicalPathPairNumbering) {
  const std::vector<NodeId> p = {1, 2, 3}, q = {4, 5};
  const std::vector<EdgeId> ep = {0, 1, 2}, eq = {3, 4};
  const std::array<SpiderLeg, 2> legs{SpiderLeg{p, ep}, SpiderLeg{q, eq}};
  EXPECT_TRUE(canonical_path_pair(0, legs));
  EXPECT_FALSE(canonical_path_pair(5, legs));
  const std::array<SpiderLeg, 2> swapped{SpiderLeg{q, eq}, SpiderLeg{p, ep}};
  EXPECT_FALSE(canonical_path_pair(0, swapped));
  EXPECT_FALSE(canonical_path_pair(0, std::span<const SpiderLeg>(legs.data(), 1)));
}

}  // namespace
}  // namespace umc::mincut
