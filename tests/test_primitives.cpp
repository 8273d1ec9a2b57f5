// Tests for the deterministic Appendix A primitives: Cole-Vishkin
// 3-coloring, star merging (Lemma 44), numbered path sums (Lemma 45),
// HL subtree/ancestor sums (Lemma 46), deterministic HL construction
// (Lemma 47), centroid finding (Lemma 42), and Borůvka MST.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "graph/generators.hpp"
#include "hl_schedule_reference.hpp"
#include "minoragg/boruvka.hpp"
#include "minoragg/cole_vishkin.hpp"
#include "minoragg/path_sums.hpp"
#include "minoragg/star_merge.hpp"
#include "minoragg/tree_primitives.hpp"
#include "tree/centroid.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"

namespace umc::minoragg {
namespace {

RootedTree tree_of(const WeightedGraph& g, NodeId root = 0) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  return RootedTree(g, ids, root);
}

void expect_proper(std::span<const int> out, std::span<const int> color) {
  for (std::size_t v = 0; v < out.size(); ++v) {
    EXPECT_GE(color[v], 0);
    EXPECT_LE(color[v], 2);
    if (out[v] >= 0) {
      EXPECT_NE(color[v], color[static_cast<std::size_t>(out[v])]);
    }
  }
}

TEST(ColeVishkin, ProperOnChains) {
  // 0 -> 1 -> 2 -> ... -> n-1 (root).
  for (const int n : {1, 2, 3, 10, 1000}) {
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) out[static_cast<std::size_t>(v)] = v + 1 < n ? v + 1 : -1;
    Ledger ledger;
    std::vector<int> color;
    ColeVishkinScratch scratch;
    cole_vishkin_3color(out, ledger, color, scratch);
    expect_proper(out, color);
    // O(log* n) bit-reduction iterations: tiny even for n = 1000.
    EXPECT_LE(ledger.counter("cv_iterations"), 6);
  }
}

TEST(ColeVishkin, ProperOnRandomForestsAndTwoCycles) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 50 + static_cast<int>(rng.next_below(200));
    std::vector<int> out(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v) {
      if (rng.next_bool(0.9)) {
        int w = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (w == v) w = (v + 1) % n;
        out[static_cast<std::size_t>(v)] = w;  // arbitrary functional graph
      }
    }
    Ledger ledger;
    std::vector<int> color;
    ColeVishkinScratch scratch;
    cole_vishkin_3color(out, ledger, color, scratch);
    expect_proper(out, color);
  }
}

TEST(StarMerge, Lemma44Guarantees) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 30 + static_cast<int>(rng.next_below(100));
    // Rooted forest: node v points to a random lower-numbered node.
    std::vector<int> out(static_cast<std::size_t>(n), -1);
    for (int v = 1; v < n; ++v)
      out[static_cast<std::size_t>(v)] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
    Ledger ledger;
    StarMergeResult res;
    StarMergeScratch scratch;
    star_merge(out, ledger, res, scratch);
    EXPECT_EQ(res.out_degree_one, n - 1);
    EXPECT_GE(3 * res.num_joiners, res.out_degree_one);     // (1)
    for (int v = 0; v < n; ++v) {
      if (!res.is_joiner[static_cast<std::size_t>(v)]) continue;
      ASSERT_GE(out[static_cast<std::size_t>(v)], 0);        // (2) J ⊆ O
      EXPECT_FALSE(res.is_joiner[static_cast<std::size_t>(out[static_cast<std::size_t>(v)])]);  // (3)
    }
  }
}

TEST(PathSums, PrefixAndSuffixMatchScan) {
  Rng rng(11);
  for (const int n : {1, 2, 3, 17, 64, 100}) {
    std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
    for (auto& v : vals) v = rng.next_in(-50, 50);
    Ledger ledger;
    const auto pre = path_prefix_sums<SumAgg>(vals, ledger);
    const auto suf = path_suffix_sums<SumAgg>(vals, ledger);
    std::int64_t acc = 0;
    for (int i = 0; i < n; ++i) {
      acc += vals[static_cast<std::size_t>(i)];
      EXPECT_EQ(pre[static_cast<std::size_t>(i)], acc);
    }
    acc = 0;
    for (int i = n - 1; i >= 0; --i) {
      acc += vals[static_cast<std::size_t>(i)];
      EXPECT_EQ(suf[static_cast<std::size_t>(i)], acc);
    }
    // Lemma 45: O(log n) rounds.
    EXPECT_LE(ledger.rounds(), 2 * (ceil_log2(static_cast<std::uint64_t>(n) + 1) + 2));
  }
}

TEST(PathSums, WorksWithMinAggregator) {
  const std::vector<std::int64_t> vals = {5, 3, 9, 1, 7};
  Ledger ledger;
  const auto pre = path_prefix_sums<MinAgg>(vals, ledger);
  EXPECT_EQ(pre[0], 5);
  EXPECT_EQ(pre[2], 3);
  EXPECT_EQ(pre[4], 1);
}

TEST(TreePrimitives, SubtreeSumsMatchReference) {
  Rng rng(13);
  for (const NodeId n : {1, 2, 5, 40, 200}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    std::vector<std::int64_t> input(static_cast<std::size_t>(n));
    for (auto& v : input) v = rng.next_in(-10, 10);
    Ledger ledger;
    const auto s = hl_subtree_sums<SumAgg>(t, hld, input, ledger);
    // Reference: accumulate up the tree.
    std::vector<std::int64_t> ref(input.begin(), input.end());
    const auto order = t.preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (t.parent(*it) != kNoNode)
        ref[static_cast<std::size_t>(t.parent(*it))] += ref[static_cast<std::size_t>(*it)];
    }
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(s[static_cast<std::size_t>(v)], ref[static_cast<std::size_t>(v)]);
  }
}

TEST(TreePrimitives, AncestorSumsMatchReference) {
  Rng rng(17);
  for (const NodeId n : {1, 3, 25, 150}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    std::vector<std::int64_t> input(static_cast<std::size_t>(n));
    for (auto& v : input) v = rng.next_in(0, 9);
    Ledger ledger;
    const auto p = hl_ancestor_sums<SumAgg>(t, hld, input, ledger);
    for (NodeId v = 0; v < n; ++v) {
      std::int64_t ref = 0;
      for (NodeId x = v; x != kNoNode; x = t.parent(x)) ref += input[static_cast<std::size_t>(x)];
      EXPECT_EQ(p[static_cast<std::size_t>(v)], ref);
    }
  }
}

TEST(TreePrimitives, SumsArePolylogRounds) {
  Rng rng(19);
  // Rounds grow polylogarithmically: compare n=100 against n=10000.
  std::int64_t rounds_small = 0, rounds_large = 0;
  {
    const WeightedGraph g = random_tree(100, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    std::vector<std::int64_t> in(100, 1);
    Ledger l;
    hl_subtree_sums<SumAgg>(t, hld, in, l);
    rounds_small = l.rounds();
  }
  {
    const WeightedGraph g = random_tree(10000, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    std::vector<std::int64_t> in(10000, 1);
    Ledger l;
    hl_subtree_sums<SumAgg>(t, hld, in, l);
    rounds_large = l.rounds();
  }
  // 100x more nodes but far less than 10x more rounds.
  EXPECT_LT(rounds_large, 6 * rounds_small);
}

TEST(TreePrimitives, HlConstructMatchesReferenceLabels) {
  Rng rng(23);
  for (const NodeId n : {2, 10, 64, 300}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    Ledger ledger;
    const HeavyLightDecomposition built = hl_construct(t, ledger);
    const HeavyLightDecomposition ref(t);
    for (EdgeId e = 0; e < g.m(); ++e) EXPECT_EQ(built.is_heavy(e), ref.is_heavy(e));
    EXPECT_GE(ledger.counter("hl_merge_iterations"), 1);
    // Star merging contracts >= 1/3 of parts per iteration.
    EXPECT_LE(ledger.counter("hl_merge_iterations"),
              3 * ceil_log2(static_cast<std::uint64_t>(n)) + 3);
  }
}

/// hl_construct charges a repeated tree by replaying the charge its first
/// schedule run recorded. Whether `t` is a first sighting on this thread or
/// a repeat, the charge must equal a fresh run of the schedule, onto ledgers
/// that already hold rounds and counters of both kinds.
void expect_replay_matches_fresh(const RootedTree& t) {
  const auto seeded = [] {
    Ledger l;
    l.charge(7);
    l.bump("subtree_star_calls");
    l.set_max("max_beta", 2);
    return l;
  };
  Ledger fresh = seeded();
  detail::hl_merge_schedule(t.parents(), fresh);
  Ledger first = seeded();
  const HeavyLightDecomposition built_first = hl_construct(t, first);
  Ledger again = seeded();
  const HeavyLightDecomposition built_again = hl_construct(t, again);
  EXPECT_EQ(first.to_json(), fresh.to_json());
  EXPECT_EQ(again.to_json(), fresh.to_json());
  const HeavyLightDecomposition ref(t);
  for (NodeId v = 0; v < t.n(); ++v) {
    EXPECT_EQ(built_first.heavy_child(v), ref.heavy_child(v));
    EXPECT_EQ(built_again.heavy_child(v), ref.heavy_child(v));
  }
}

/// A copy of `g` with node v renamed perm[v]; edges keep their ids.
WeightedGraph relabel(const WeightedGraph& g, const std::vector<NodeId>& perm) {
  WeightedGraph h(g.n());
  for (const Edge& e : g.edges())
    h.add_edge(perm[static_cast<std::size_t>(e.u)], perm[static_cast<std::size_t>(e.v)], e.w);
  return h;
}

TEST(TreePrimitives, HlConstructReplayMatchesFreshScheduleOnFamilies) {
  Rng rng(57);
  for (const NodeId n : {1, 2, 3, 17, 64}) {
    expect_replay_matches_fresh(tree_of(path_graph(n)));
    expect_replay_matches_fresh(tree_of(path_graph(n), n / 2));  // rooted mid-path
    expect_replay_matches_fresh(tree_of(star_graph(n)));
    expect_replay_matches_fresh(tree_of(star_graph(n), n - 1));  // rooted at a leaf
    expect_replay_matches_fresh(tree_of(binary_tree(n)));
    expect_replay_matches_fresh(tree_of(random_tree(n, rng)));
  }
  // Caterpillars: a spine with `legs` leaves on every spine node.
  for (const int legs : {1, 2, 3}) {
    const NodeId spine = 12;
    WeightedGraph g(spine * (1 + legs));
    for (NodeId v = 0; v + 1 < spine; ++v) g.add_edge(v, v + 1);
    for (NodeId v = 0; v < spine; ++v)
      for (int l = 0; l < legs; ++l) g.add_edge(v, spine + v * legs + l);
    expect_replay_matches_fresh(tree_of(g));
    expect_replay_matches_fresh(tree_of(g, spine - 1));
  }
}

TEST(TreePrimitives, HlConstructReplayKeysOnLabelledParents) {
  // One shape under many labellings: each labelling is its own parent
  // array, so each is charged (and later replayed) as its own schedule.
  Rng rng(61);
  const WeightedGraph shape = random_tree(40, rng);
  std::vector<NodeId> perm(static_cast<std::size_t>(shape.n()));
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (int copy = 0; copy < 24; ++copy) {
    for (std::size_t i = perm.size(); i-- > 1;)
      std::swap(perm[i], perm[static_cast<std::size_t>(rng.next_below(i + 1))]);
    const WeightedGraph g = relabel(shape, perm);
    expect_replay_matches_fresh(tree_of(g, perm[0]));
  }
}

TEST(TreePrimitives, HlConstructReplayAcrossTableClears) {
  // More distinct trees than the per-thread table holds, twice over: the
  // table clears while filling, so the second pass mixes replays of
  // surviving entries with fresh runs. Every charge equals a fresh run.
  Rng rng(67);
  const std::size_t count = detail::kHlScheduleEntries + 100;
  std::vector<WeightedGraph> graphs;
  std::vector<std::string> want;
  for (std::size_t i = 0; i < count; ++i) {
    graphs.push_back(random_tree(static_cast<NodeId>(5 + rng.next_below(60)), rng));
    Ledger fresh;
    detail::hl_merge_schedule(tree_of(graphs.back()).parents(), fresh);
    want.push_back(fresh.to_json());
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = pass == 0 ? i : count - 1 - i;
      Ledger got;
      (void)hl_construct(tree_of(graphs[j]), got);
      EXPECT_EQ(got.to_json(), want[j]) << "tree " << j << ", pass " << pass;
    }
  }
  // A tree with more nodes than the table stores in all is never kept,
  // and is still charged exactly.
  expect_replay_matches_fresh(
      tree_of(random_tree(static_cast<NodeId>(detail::kHlScheduleKeyIds) + 1, rng)));
}

/// A random labelling of one tree shape on n nodes (n >= 1), with a random
/// root: 0 = path, 1 = spider (random leg lengths), 2 = star, 3 =
/// caterpillar (a spine with leaves on random spine nodes), 4 = random tree.
RootedTree labelled_tree(int shape, NodeId n, Rng& rng, WeightedGraph& g) {
  const auto below = [&rng](NodeId x) {
    return static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(x)));
  };
  WeightedGraph shaped(n);
  switch (shape) {
    case 0:
      for (NodeId v = 1; v < n; ++v) shaped.add_edge(v - 1, v);
      break;
    case 1: {
      const int legs = 1 + static_cast<int>(rng.next_below(6));
      NodeId prev = 0;
      for (NodeId v = 1; v < n; ++v) {
        // Start a new leg off node 0 with chance legs / n.
        if (rng.next_below(static_cast<std::uint64_t>(n)) < static_cast<std::uint64_t>(legs))
          prev = 0;
        shaped.add_edge(prev, v);
        prev = v;
      }
      break;
    }
    case 2:
      for (NodeId v = 1; v < n; ++v) shaped.add_edge(0, v);
      break;
    case 3: {
      const NodeId spine = 1 + below(n);
      for (NodeId v = 1; v < spine; ++v) shaped.add_edge(v - 1, v);
      for (NodeId v = spine; v < n; ++v) shaped.add_edge(below(spine), v);
      break;
    }
    default:
      shaped = random_tree(n, rng);
      break;
  }
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), NodeId{0});
  rng.shuffle(perm);
  g = relabel(shaped, perm);
  return tree_of(g, below(n));
}

TEST(TreePrimitives, ScheduleMatchesDsuReference) {
  // The dense part-index schedule charges exactly what the DSU reference
  // charges — rounds, merge iterations and Cole–Vishkin iterations — on
  // random labellings of paths, spiders, stars, caterpillars and random
  // trees with random roots.
  Rng rng(71);
  for (int trial = 0; trial < 4200; ++trial) {
    const int shape = trial % 5;
    const NodeId n = 1 + static_cast<NodeId>(rng.next_below(300));
    WeightedGraph g;
    const RootedTree t = labelled_tree(shape, n, rng, g);
    Ledger lean, reference;
    detail::hl_merge_schedule(t.parents(), lean);
    reference_hl_merge_schedule(t, reference);
    ASSERT_EQ(lean.rounds(), reference.rounds()) << "shape " << shape << ", n " << n;
    ASSERT_EQ(lean.counter(CounterId::hl_merge_iterations),
              reference.counter(CounterId::hl_merge_iterations))
        << "shape " << shape << ", n " << n;
    ASSERT_EQ(lean.counter(CounterId::cv_iterations), reference.counter(CounterId::cv_iterations))
        << "shape " << shape << ", n " << n;
    ASSERT_EQ(lean.to_json(), reference.to_json()) << "shape " << shape << ", n " << n;
  }
}

TEST(TreePrimitives, PathPairChargeMatchesTheParentArrayCharge) {
  // hl_path_pair_schedule_charge reads a per-thread (p, q) table for legs
  // up to kHlPathPairSide nodes and the parent-array table beyond; both
  // must charge what a fresh schedule of the canonical spider charges,
  // first sighting and repeat alike.
  const auto side = static_cast<std::size_t>(detail::kHlPathPairSide);
  for (const auto& [p, q] : {std::pair<std::size_t, std::size_t>{1, 1}, {1, 2}, {2, 1},
                             {7, 40}, {40, 7}, {side, side}, {side, side + 1},
                             {side + 1, 3}, {90, 90}}) {
    std::vector<NodeId> parents(1 + p + q);
    std::iota(parents.begin(), parents.end(), NodeId{-1});
    parents[p + 1] = 0;
    Ledger fresh;
    detail::hl_merge_schedule(parents, fresh);
    for (int repeat = 0; repeat < 2; ++repeat) {
      Ledger got;
      hl_path_pair_schedule_charge(p, q, got);
      EXPECT_EQ(got.to_json(), fresh.to_json()) << "p " << p << ", q " << q;
    }
  }
}

TEST(TreePrimitives, CentroidMatchesFact41) {
  Rng rng(29);
  for (const NodeId n : {1, 2, 7, 100, 321}) {
    const WeightedGraph g = random_tree(n, rng);
    const RootedTree t = tree_of(g);
    const HeavyLightDecomposition hld(t);
    Ledger ledger;
    const NodeId c = find_centroid_ma(t, hld, ledger);
    EXPECT_LE(largest_component_after_removal(t, c), n / 2);
  }
}

TEST(Boruvka, MatchesKruskalOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const NodeId n = 5 + static_cast<NodeId>(rng.next_below(60));
    WeightedGraph g = random_connected(n, n + static_cast<EdgeId>(rng.next_below(80)), rng);
    std::vector<std::int64_t> cost(static_cast<std::size_t>(g.m()));
    for (auto& c : cost) c = rng.next_in(1, 40);
    std::vector<double> dcost(cost.begin(), cost.end());
    Ledger ledger;
    const auto b = boruvka_mst(g, cost, ledger);
    const auto k = kruskal_mst(g, dcost);
    std::int64_t bw = 0, kw = 0;
    for (const EdgeId e : b) bw += cost[static_cast<std::size_t>(e)];
    for (const EdgeId e : k) kw += cost[static_cast<std::size_t>(e)];
    EXPECT_EQ(bw, kw);
    // O(log n) Definition 9 rounds.
    EXPECT_LE(ledger.rounds(), ceil_log2(static_cast<std::uint64_t>(n)) + 2);
  }
}

TEST(Boruvka, SingleNodeAndSingleEdge) {
  Ledger l1;
  const WeightedGraph g1 = path_graph(1);
  EXPECT_TRUE(boruvka_mst(g1, std::vector<std::int64_t>{}, l1).empty());
  Ledger l2;
  WeightedGraph g2(2);
  g2.add_edge(0, 1, 5);
  const std::vector<std::int64_t> cost = {5};
  EXPECT_EQ(boruvka_mst(g2, cost, l2).size(), 1u);
}

}  // namespace
}  // namespace umc::minoragg

namespace umc::minoragg {
namespace {

TEST(OrientTree, Theorem48ProducesTheRequestedRootingOnFamilies) {
  Rng rng(43);
  for (const NodeId n : {2, 3, 17, 200, 1000}) {
    const WeightedGraph g = random_tree(n, rng);
    std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
    std::iota(ids.begin(), ids.end(), EdgeId{0});
    const NodeId root = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    Ledger ledger;
    const RootedTree t = orient_tree(g, ids, root, ledger);
    EXPECT_EQ(t.root(), root);
    EXPECT_EQ(t.subtree_size(root), n);
    // Theorem 48 merging: >= 1/3 of parts merge per iteration.
    EXPECT_LE(ledger.counter("orient_merge_iterations"),
              3 * ceil_log2(static_cast<std::uint64_t>(n) + 1) + 3);
    if (n > 1) {
      EXPECT_GE(ledger.counter("orient_merge_iterations"), 1);
    }
  }
}

TEST(OrientTree, ArbitraryMarksCreateTwoCyclesAndStillMerge) {
  // A path: the two end parts mark each other through the middle after a
  // few merges — the 2-cycle case of the Cole-Vishkin coloring.
  const WeightedGraph g = path_graph(64);
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  Ledger ledger;
  const RootedTree t = orient_tree(g, ids, 63, ledger);
  EXPECT_EQ(t.depth(0), 63);
}

}  // namespace
}  // namespace umc::minoragg
