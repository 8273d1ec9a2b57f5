// Tests for the round-execution engine (round_engine.hpp): the plan cache
// and the determinism contract — engine rounds must be BIT-identical to a
// straight-line sequential reference implementation of Definition 9, for
// every shipped aggregator and at every thread width.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "minoragg/ledger.hpp"
#include "minoragg/network.hpp"
#include "minoragg/tree_primitives.hpp"
#include "tree/hld.hpp"
#include "tree/rooted_tree.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::minoragg {
namespace {

// Seed-style reference round: one DSU pass per call, folds in increasing
// node/edge id order. This is the sequential semantics the engine promises
// to reproduce exactly.
template <Aggregator CAgg, Aggregator XAgg, typename EdgeFn>
RoundResult<typename CAgg::value_type, typename XAgg::value_type> reference_round(
    const WeightedGraph& g, const std::vector<bool>& contract,
    std::span<const typename CAgg::value_type> node_input, EdgeFn&& edge_values) {
  using Y = typename CAgg::value_type;
  using Z = typename XAgg::value_type;
  const std::size_t n = static_cast<std::size_t>(g.n());
  Dsu dsu(g.n());
  for (EdgeId e = 0; e < g.m(); ++e)
    if (contract[static_cast<std::size_t>(e)]) dsu.unite(g.edge(e).u, g.edge(e).v);

  RoundResult<Y, Z> out;
  out.supernode.assign(n, 0);
  // Scanning v ascending and keeping the FIRST member seen per root gives
  // the smallest contained id.
  std::vector<NodeId> leader(n);
  std::vector<bool> seen(n, false);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::size_t r = static_cast<std::size_t>(dsu.find(v));
    if (!seen[r]) {
      seen[r] = true;
      leader[r] = v;
    }
    out.supernode[static_cast<std::size_t>(v)] = leader[r];
  }

  std::vector<Y> y(n, CAgg::identity());
  for (NodeId v = 0; v < g.n(); ++v) {
    Y& acc = y[static_cast<std::size_t>(out.supernode[static_cast<std::size_t>(v)])];
    acc = CAgg::merge(std::move(acc), node_input[static_cast<std::size_t>(v)]);
  }
  out.consensus.resize(n);
  for (NodeId v = 0; v < g.n(); ++v)
    out.consensus[static_cast<std::size_t>(v)] =
        y[static_cast<std::size_t>(out.supernode[static_cast<std::size_t>(v)])];

  std::vector<Z> z(n, XAgg::identity());
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId su = out.supernode[static_cast<std::size_t>(ed.u)];
    const NodeId sv = out.supernode[static_cast<std::size_t>(ed.v)];
    if (su == sv) continue;  // minor self-loop
    auto [zu, zv] = edge_values(e, out.consensus[static_cast<std::size_t>(ed.u)],
                                out.consensus[static_cast<std::size_t>(ed.v)]);
    z[static_cast<std::size_t>(su)] = XAgg::merge(std::move(z[static_cast<std::size_t>(su)]), zu);
    z[static_cast<std::size_t>(sv)] = XAgg::merge(std::move(z[static_cast<std::size_t>(sv)]), zv);
  }
  out.aggregate.resize(n);
  for (NodeId v = 0; v < g.n(); ++v)
    out.aggregate[v] = z[static_cast<std::size_t>(out.supernode[static_cast<std::size_t>(v)])];
  return out;
}

std::vector<bool> random_contract(const WeightedGraph& g, double p, Rng& rng) {
  std::vector<bool> c(static_cast<std::size_t>(g.m()));
  for (std::size_t e = 0; e < c.size(); ++e) c[e] = rng.next_bool(p);
  return c;
}

// One equivalence check: engine round vs reference, over every thread width.
template <Aggregator CAgg, Aggregator XAgg, typename MakeInput, typename EdgeFn>
void expect_equivalent(const WeightedGraph& g, const std::vector<bool>& contract,
                       MakeInput&& make_input, EdgeFn&& edge_values) {
  const auto input = make_input(g);
  const std::span<const typename CAgg::value_type> in(input);
  const auto ref = reference_round<CAgg, XAgg>(g, contract, in, edge_values);
  for (int threads = 1; threads <= 8; ++threads) {
    Ledger ledger;
    const Network net(g, ledger);
    net.set_threads(threads);
    const auto got = net.round<CAgg, XAgg>(contract, in, edge_values);
    EXPECT_EQ(got.supernode, ref.supernode) << "threads=" << threads;
    EXPECT_EQ(got.consensus, ref.consensus) << "threads=" << threads;
    EXPECT_EQ(got.aggregate, ref.aggregate) << "threads=" << threads;
    EXPECT_EQ(ledger.rounds(), 1) << "threads=" << threads;
  }
}

/// Random multigraph: m edges between distinct random endpoints, every
/// fourth one doubled by a parallel copy right after it.
WeightedGraph random_multigraph(NodeId n, EdgeId m, Rng& rng) {
  WeightedGraph g(n);
  while (g.m() < m) {
    const NodeId u = static_cast<NodeId>(rng.next_in(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.next_in(0, n - 1));
    if (u == v) continue;
    const Weight w = rng.next_in(1, 9);
    g.add_edge(u, v, w);
    if (g.m() % 4 == 0) g.add_edge(v, u, w + 1);
  }
  return g;
}

/// Order-sensitive aggregator: the list of (edge, side) incidences in the
/// order they were folded, so any reordering of the fold shows up.
struct IncidenceTraceAgg {
  using value_type = std::vector<std::pair<EdgeId, int>>;
  static value_type identity() { return {}; }
  static value_type merge(value_type a, value_type b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }
};

// neighborhood_aggregate folds incident edges directly instead of through
// an engine plan. It must equal the engine's all-false-contraction round
// at widths 1 and 8, and charge the same single round.
template <Aggregator XAgg, typename EdgeFn>
void expect_neighborhood_matches_engine(const WeightedGraph& g, EdgeFn&& edge_values) {
  Ledger direct_ledger;
  std::vector<typename XAgg::value_type> direct;
  Network(g, direct_ledger).neighborhood_aggregate<XAgg>(edge_values, direct);
  EXPECT_EQ(direct_ledger.rounds(), 1);
  const std::vector<bool> none(static_cast<std::size_t>(g.m()), false);
  const std::vector<std::uint8_t> zeros(static_cast<std::size_t>(g.n()), 0);
  for (const int threads : {1, 8}) {
    Ledger ledger;
    const Network net(g, ledger);
    net.set_threads(threads);
    const auto res = net.round<OrAgg, XAgg>(
        none, zeros,
        [&edge_values](EdgeId e, const std::uint8_t&, const std::uint8_t&) {
          return edge_values(e);
        });
    EXPECT_EQ(direct, res.aggregate) << "threads=" << threads << " n=" << g.n();
    EXPECT_EQ(ledger.rounds(), 1);
  }
}

TEST(RoundEngine, EquivalenceSweepAllAggregators) {
  Rng rng(0xE9E5);
  std::vector<WeightedGraph> graphs;
  graphs.push_back(grid_graph(9, 7));
  graphs.push_back(erdos_renyi_connected(60, 0.12, rng));
  graphs.push_back(random_tree(50, rng));
  // Multigraphs with parallel edges; the last is above the engine's
  // parallel cutoff, so width 8 really folds chunk-parallel there.
  graphs.push_back(random_multigraph(40, 150, rng));
  graphs.push_back(random_multigraph(3000, 9000, rng));
  for (const WeightedGraph& g : graphs) {
    expect_neighborhood_matches_engine<SumAgg>(g, [&g](EdgeId e) {
      return std::pair<std::int64_t, std::int64_t>{g.edge(e).w * 3 + e, -g.edge(e).w};
    });
    expect_neighborhood_matches_engine<IncidenceTraceAgg>(g, [](EdgeId e) {
      return std::pair{IncidenceTraceAgg::value_type{{e, 0}},
                       IncidenceTraceAgg::value_type{{e, 1}}};
    });
  }
  for (const WeightedGraph& g : graphs) {
    for (const double p : {0.0, 0.35, 1.0}) {
      const std::vector<bool> contract = random_contract(g, p, rng);

      const auto int_input = [&rng](const WeightedGraph& gr) {
        std::vector<std::int64_t> x(static_cast<std::size_t>(gr.n()));
        for (auto& v : x) v = rng.next_in(-1000, 1000);
        return x;
      };
      const auto bit_input = [&rng](const WeightedGraph& gr) {
        std::vector<std::uint8_t> x(static_cast<std::size_t>(gr.n()));
        for (auto& v : x) v = static_cast<std::uint8_t>(rng.next_bool() ? 1 : 0);
        return x;
      };

      // Sum consensus, min aggregation (Borůvka-style shapes).
      expect_equivalent<SumAgg, MinAgg>(
          g, contract, int_input, [](EdgeId e, std::int64_t yu, std::int64_t yv) {
            return std::pair<std::int64_t, std::int64_t>{yu + yv + e, yv - yu + 2 * e};
          });
      // Min consensus, sum aggregation.
      expect_equivalent<MinAgg, SumAgg>(
          g, contract, int_input, [](EdgeId e, std::int64_t yu, std::int64_t yv) {
            return std::pair<std::int64_t, std::int64_t>{yu * 3 + e, yv * 5 - e};
          });
      // Max consensus, max aggregation.
      expect_equivalent<MaxAgg, MaxAgg>(
          g, contract, int_input, [](EdgeId e, std::int64_t yu, std::int64_t yv) {
            return std::pair<std::int64_t, std::int64_t>{yu - e, yv + e};
          });
      // Boolean or/and.
      expect_equivalent<OrAgg, AndAgg>(
          g, contract, bit_input, [](EdgeId e, std::uint8_t yu, std::uint8_t yv) {
            return std::pair<std::uint8_t, std::uint8_t>{
                static_cast<std::uint8_t>((yu ^ (e & 1)) & 1),
                static_cast<std::uint8_t>((yv | (e & 1)) & 1)};
          });
      expect_equivalent<AndAgg, OrAgg>(
          g, contract, bit_input, [](EdgeId e, std::uint8_t yu, std::uint8_t yv) {
            return std::pair<std::uint8_t, std::uint8_t>{
                static_cast<std::uint8_t>(yu & yv), static_cast<std::uint8_t>((yu ^ yv ^ e) & 1)};
          });
      // (value, tag) pair minimum — the leader-election / MWOE shape.
      const auto pair_input = [&rng](const WeightedGraph& gr) {
        std::vector<std::pair<std::int64_t, std::int64_t>> x(static_cast<std::size_t>(gr.n()));
        for (std::size_t v = 0; v < x.size(); ++v)
          x[v] = {rng.next_in(0, 50), static_cast<std::int64_t>(v)};
        return x;
      };
      expect_equivalent<MinPairAgg, MinPairAgg>(
          g, contract, pair_input,
          [](EdgeId e, const std::pair<std::int64_t, std::int64_t>& yu,
             const std::pair<std::int64_t, std::int64_t>& yv) {
            return std::pair{std::pair<std::int64_t, std::int64_t>{yu.first + yv.first, e},
                             std::pair<std::int64_t, std::int64_t>{yv.first - yu.first, e}};
          });
    }
  }
}

TEST(RoundEngine, PlanCacheHitsSkipRebuildAndKeepAccounting) {
  Rng rng(0xCAFE);
  const WeightedGraph g = grid_graph(8, 8);
  Ledger ledger;
  const Network net(g, ledger);
  RoundEngine& engine = net.engine();

  const std::vector<bool> contract = random_contract(g, 0.4, rng);
  std::vector<std::int64_t> x(static_cast<std::size_t>(g.n()));
  for (auto& v : x) v = rng.next_in(0, 100);
  const std::span<const std::int64_t> in(x);
  const auto fn = [](EdgeId e, std::int64_t yu, std::int64_t yv) {
    return std::pair<std::int64_t, std::int64_t>{yu + e, yv - e};
  };

  const auto first = net.round<SumAgg, MinAgg>(contract, in, fn);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(ledger.rounds(), 1);

  // Replays of the same pattern hit the cache (no DSU / plan rebuild) and
  // both the outputs and the model accounting stay identical per round.
  for (int i = 0; i < 5; ++i) {
    const auto again = net.round<SumAgg, MinAgg>(contract, in, fn);
    EXPECT_EQ(again.supernode, first.supernode);
    EXPECT_EQ(again.consensus, first.consensus);
    EXPECT_EQ(again.aggregate, first.aggregate);
  }
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 5u);
  EXPECT_EQ(ledger.rounds(), 6);  // 1 per round(), cache hit or not

  // A different pattern is a miss; replaying the first is still a hit.
  const std::vector<bool> other = random_contract(g, 0.4, rng);
  ASSERT_NE(other, contract);
  (void)net.round<SumAgg, MinAgg>(other, in, fn);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  (void)net.round<SumAgg, MinAgg>(contract, in, fn);
  EXPECT_EQ(engine.plan_cache_hits(), 6u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

// A graph above the engine's parallel cutoff (1 << 13 units of work), so
// widths > 1 genuinely run chunked folds on the thread pool — this is the
// case the TSAN job (test_round_engine_threads8 under -DUMC_SANITIZE=thread)
// exists for. Smaller sweeps above collapse to the inline path.
TEST(RoundEngine, LargeGraphParallelFoldsBitIdentical) {
  Rng rng(0x51DE);
  const WeightedGraph g = grid_graph(128, 128);  // 16384 nodes, 32512 edges
  const std::vector<bool> contract = random_contract(g, 0.6, rng);
  std::vector<std::int64_t> x(static_cast<std::size_t>(g.n()));
  for (auto& v : x) v = rng.next_in(-5000, 5000);
  const std::span<const std::int64_t> in(x);
  const auto fn = [](EdgeId e, std::int64_t yu, std::int64_t yv) {
    return std::pair<std::int64_t, std::int64_t>{yu + 2 * yv + e, yv - yu + 7 * e};
  };
  const auto ref = reference_round<SumAgg, MinAgg>(g, contract, in, fn);
  for (const int threads : {1, 2, 3, 8}) {
    Ledger ledger;
    const Network net(g, ledger);
    net.set_threads(threads);
    const auto got = net.round<SumAgg, MinAgg>(contract, in, fn);
    EXPECT_EQ(got.supernode, ref.supernode) << "threads=" << threads;
    EXPECT_EQ(got.consensus, ref.consensus) << "threads=" << threads;
    EXPECT_EQ(got.aggregate, ref.aggregate) << "threads=" << threads;
    EXPECT_EQ(ledger.rounds(), 1) << "threads=" << threads;
  }
}

TEST(RoundEngine, PlanCacheEvictsLeastRecentlyUsed) {
  Rng rng(0xBEEF);
  const WeightedGraph g = cycle_graph(40);
  Ledger ledger;
  const Network net(g, ledger);
  RoundEngine& engine = net.engine();

  // 17 distinct patterns overflow the 16-entry cache; the first (least
  // recently used) pattern must rebuild when it comes back.
  std::vector<std::vector<bool>> patterns;
  for (int i = 0; i < 17; ++i) patterns.push_back(random_contract(g, 0.5, rng));
  for (const auto& pat : patterns) (void)engine.plan(pat);
  EXPECT_EQ(engine.plan_cache_misses(), 17u);
  EXPECT_EQ(engine.plan_cache_size(), 16u);
  (void)engine.plan(patterns[0]);
  EXPECT_EQ(engine.plan_cache_misses(), 18u);
  // The most recent patterns are still cached.
  (void)engine.plan(patterns[16]);
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
}

// The other host-parallel surface: HL subtree/ancestor sums spread the
// node-disjoint chains of one HL-depth over the pool when a level is large
// enough. A big random tree reaches that threshold, so under the threads8 /
// TSAN job this genuinely runs chains concurrently; results must match a
// plain traversal exactly.
TEST(RoundEngine, LargeTreeChainParallelSumsMatchTraversal) {
  Rng rng(0x7EE5);
  const WeightedGraph g = random_tree(30000, rng);
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
  const RootedTree t(g, ids, 0);
  const HeavyLightDecomposition hld(t);
  std::vector<std::int64_t> input(static_cast<std::size_t>(t.n()));
  for (auto& v : input) v = rng.next_in(-100, 100);

  // Plain traversal oracles: children before parents for subtree sums,
  // parents before children for ancestor sums (BFS order has that property).
  std::vector<NodeId> bfs;
  bfs.reserve(static_cast<std::size_t>(t.n()));
  bfs.push_back(0);
  for (std::size_t i = 0; i < bfs.size(); ++i)
    for (const NodeId c : t.children(bfs[i])) bfs.push_back(c);
  std::vector<std::int64_t> want_sub(input);
  for (std::size_t i = bfs.size(); i-- > 1;)
    want_sub[static_cast<std::size_t>(t.parent(bfs[i]))] +=
        want_sub[static_cast<std::size_t>(bfs[i])];
  std::vector<std::int64_t> want_anc(input);
  for (std::size_t i = 1; i < bfs.size(); ++i)
    want_anc[static_cast<std::size_t>(bfs[i])] +=
        want_anc[static_cast<std::size_t>(t.parent(bfs[i]))];

  Ledger ledger;
  const auto sub = hl_subtree_sums<SumAgg>(t, hld, input, ledger);
  const auto anc = hl_ancestor_sums<SumAgg>(t, hld, input, ledger);
  EXPECT_EQ(sub, want_sub);
  EXPECT_EQ(anc, want_anc);
  EXPECT_GT(ledger.rounds(), 0);
}

/// Associative, non-commutative aggregator: composition of affine maps
/// x -> a*x + b over 64-bit wrap-around arithmetic, applied left to right.
/// A fold in any other order gives a different map.
struct AffineAgg {
  using value_type = std::pair<std::uint64_t, std::uint64_t>;
  static value_type identity() { return {1, 0}; }
  static value_type merge(value_type f, value_type g) {
    return {f.first * g.first, f.second * g.first + g.second};
  }
};

/// The tree on edges {parent[v], v} for v >= 1.
WeightedGraph tree_from_parents(const std::vector<NodeId>& parent) {
  WeightedGraph g(static_cast<NodeId>(parent.size()));
  for (std::size_t v = 1; v < parent.size(); ++v) g.add_edge(parent[v], static_cast<NodeId>(v));
  return g;
}

// The flat chain layout behind hl_subtree_sums / hl_ancestor_sums, checked
// against a naive DFS fold with an order-sensitive aggregator, and their
// charged rounds against the Lemma 46 cost: per HL-depth, the max over its
// chains of one x-initialization round plus the Lemma 45 path cost
// (1 + ceil(log2 |chain|)). The star has one HL level of 9999 single-node
// chains, above the parallel cutoff, so under the threads8 job the
// parallel chain branch runs.
TEST(RoundEngine, ChainLayoutSumsMatchNaiveFoldAndLemma46Cost) {
  Rng rng(0xC4A1);
  std::vector<std::pair<const char*, std::vector<NodeId>>> shapes;
  {
    std::vector<NodeId> path(700);
    for (std::size_t v = 1; v < path.size(); ++v) path[v] = static_cast<NodeId>(v - 1);
    shapes.emplace_back("path", std::move(path));
    std::vector<NodeId> star(10000, 0);
    shapes.emplace_back("star", std::move(star));
    // Caterpillar: a 300-node spine, each spine node with two legs.
    std::vector<NodeId> cat(900);
    for (std::size_t v = 1; v < 300; ++v) cat[v] = static_cast<NodeId>(v - 1);
    for (std::size_t v = 300; v < 900; ++v) cat[v] = static_cast<NodeId>((v - 300) / 2);
    shapes.emplace_back("caterpillar", std::move(cat));
    std::vector<NodeId> rnd(2000);
    for (std::size_t v = 1; v < rnd.size(); ++v)
      rnd[v] = static_cast<NodeId>(rng.next_in(0, static_cast<std::int64_t>(v) - 1));
    shapes.emplace_back("random", std::move(rnd));
  }
  for (const auto& [name, parent] : shapes) {
    const WeightedGraph g = tree_from_parents(parent);
    std::vector<EdgeId> ids(static_cast<std::size_t>(g.m()));
    for (EdgeId e = 0; e < g.m(); ++e) ids[static_cast<std::size_t>(e)] = e;
    const RootedTree t(g, ids, 0);
    const HeavyLightDecomposition hld(t);
    std::vector<AffineAgg::value_type> input(static_cast<std::size_t>(t.n()));
    for (auto& f : input)
      f = {static_cast<std::uint64_t>(rng.next_in(0, 1 << 20)) * 2 + 1,
           static_cast<std::uint64_t>(rng.next_in(0, 1 << 20))};
    const auto heavy_child = [&](NodeId v) {
      for (const NodeId c : t.children(v))
        if (hld.chain_head(c) != c) return c;
      return kNoNode;
    };

    // Naive folds over a DFS. Subtree: the chain below v first (suffix
    // sums run bottom-up), then v, then v's light children in child order.
    // Ancestor: root to v.
    std::vector<AffineAgg::value_type> want_sub(input.size()), want_anc(input.size());
    for (auto it = t.preorder().rbegin(); it != t.preorder().rend(); ++it) {
      const NodeId v = *it;
      const NodeId h = heavy_child(v);
      auto acc = h != kNoNode ? want_sub[static_cast<std::size_t>(h)] : AffineAgg::identity();
      acc = AffineAgg::merge(acc, input[static_cast<std::size_t>(v)]);
      for (const NodeId c : t.children(v))
        if (c != h) acc = AffineAgg::merge(acc, want_sub[static_cast<std::size_t>(c)]);
      want_sub[static_cast<std::size_t>(v)] = acc;
    }
    for (const NodeId v : t.preorder()) {
      const NodeId p = t.parent(v);
      want_anc[static_cast<std::size_t>(v)] = AffineAgg::merge(
          p == kNoNode ? AffineAgg::identity() : want_anc[static_cast<std::size_t>(p)],
          input[static_cast<std::size_t>(v)]);
    }

    // Lemma 46 cost, from chains found by walking heavy children.
    std::vector<std::int64_t> level_cost(static_cast<std::size_t>(hld.max_hl_depth()) + 1, 0);
    for (NodeId v = 0; v < t.n(); ++v) {
      if (hld.chain_head(v) != v) continue;
      std::uint64_t len = 0;
      for (NodeId cur = v; cur != kNoNode; cur = heavy_child(cur)) ++len;
      std::int64_t& cost = level_cost[static_cast<std::size_t>(hld.hl_depth(v))];
      cost = std::max<std::int64_t>(cost, 2 + ceil_log2(len));
    }
    std::int64_t want_rounds = 0;
    for (const std::int64_t c : level_cost) want_rounds += c;

    Ledger sub_ledger, anc_ledger;
    EXPECT_EQ(hl_subtree_sums<AffineAgg>(t, hld, input, sub_ledger), want_sub) << name;
    EXPECT_EQ(hl_ancestor_sums<AffineAgg>(t, hld, input, anc_ledger), want_anc) << name;
    EXPECT_EQ(sub_ledger.rounds(), want_rounds) << name;
    EXPECT_EQ(anc_ledger.rounds(), want_rounds) << name;
    EXPECT_TRUE(sub_ledger.counters().empty()) << name;
    if (std::string_view(name) == "path") {
      EXPECT_EQ(want_rounds, 2 + 10);  // one 700-node chain
    } else if (std::string_view(name) == "star") {
      EXPECT_EQ(want_rounds, 3 + 2);  // the {hub, leaf} chain, then single leaves
    }
  }
}

}  // namespace
}  // namespace umc::minoragg
