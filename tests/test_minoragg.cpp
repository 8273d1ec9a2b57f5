// Tests for the Minor-Aggregation simulator (Definition 9) and the
// virtual-node extension (Section 4.1: Theorem 14 accounting, Lemma 15).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "graph/dsu.hpp"
#include "contract_reference.hpp"
#include "graph/generators.hpp"
#include "minoragg/boruvka.hpp"
#include "tree/spanning.hpp"
#include "minoragg/ledger.hpp"
#include "minoragg/network.hpp"
#include "minoragg/tree_primitives.hpp"
#include "minoragg/virtual_graph.hpp"
#include "util/rng.hpp"

namespace umc::minoragg {
namespace {

TEST(Ledger, SequentialAndParallelComposition) {
  Ledger l;
  l.charge(3);
  EXPECT_EQ(l.rounds(), 3);
  Ledger a, b;
  a.charge(5);
  a.bump("x", 2);
  b.charge(9);
  b.bump("x", 7);
  const std::vector<Ledger> children = {a, b};
  l.charge_parallel(children);
  EXPECT_EQ(l.rounds(), 3 + 9);       // max of children round counts
  EXPECT_EQ(l.counter("x"), 9);       // additive counters sum up
  l.charge_sequential(a);
  EXPECT_EQ(l.rounds(), 12 + 5);
  EXPECT_EQ(l.counter("x"), 11);
  // "max_"-prefixed counters merge by maximum instead.
  Ledger m1, m2;
  m1.set_max("max_depth", 4);
  m2.set_max("max_depth", 2);
  m1.charge_sequential(m2);
  EXPECT_EQ(m1.counter("max_depth"), 4);
}

TEST(Ledger, CounterKindsMergeByKeyPrefix) {
  // The "max_" prefix IS the merge kind (see the ledger.hpp convention):
  // max-kind keys take the maximum, sum-kind keys add — under BOTH
  // composition rules, including a parent value already present.
  Ledger parent;
  parent.set_max("max_depth", 3);
  parent.bump("work", 10);

  Ledger a, b;
  a.charge(2);
  a.set_max("max_depth", 7);
  a.bump("work", 1);
  b.charge(5);
  b.set_max("max_depth", 5);
  b.bump("work", 2);

  const std::vector<Ledger> children = {a, b};
  parent.charge_parallel(children);
  EXPECT_EQ(parent.rounds(), 5);               // max of {2, 5}
  EXPECT_EQ(parent.counter("max_depth"), 7);   // max of {3, 7, 5}
  EXPECT_EQ(parent.counter("work"), 13);       // 10 + 1 + 2

  parent.charge_sequential(a);
  EXPECT_EQ(parent.rounds(), 7);               // 5 + 2
  EXPECT_EQ(parent.counter("max_depth"), 7);   // max(7, 7): sequential maxes too
  EXPECT_EQ(parent.counter("work"), 14);

  // A child whose max is below the parent's must not lower it.
  Ledger low;
  low.set_max("max_depth", 1);
  parent.charge_sequential(low);
  EXPECT_EQ(parent.counter("max_depth"), 7);

  // absorb_counter merges a single counter by the same kind rule.
  parent.absorb_counter("max_depth", 9);
  parent.absorb_counter("work", 6);
  EXPECT_EQ(parent.counter("max_depth"), 9);
  EXPECT_EQ(parent.counter("work"), 20);

  // Unset counters read as 0 and merge from 0.
  EXPECT_EQ(parent.counter("missing"), 0);
}

TEST(Network, ConsensusOverSupernodes) {
  // Path 0-1-2-3; contract {0,1} and {2,3}: two supernodes.
  const WeightedGraph g = path_graph(4);
  Ledger ledger;
  Network net(g, ledger);
  const std::vector<bool> contract = {true, false, true};
  const std::vector<std::int64_t> x = {1, 10, 100, 1000};
  const auto res = net.round<SumAgg, SumAgg>(
      contract, x, [](EdgeId, const std::int64_t&, const std::int64_t&) {
        return std::pair<std::int64_t, std::int64_t>{1, 1};
      });
  EXPECT_EQ(res.consensus[0], 11);
  EXPECT_EQ(res.consensus[1], 11);
  EXPECT_EQ(res.consensus[2], 1100);
  EXPECT_EQ(res.supernode[0], res.supernode[1]);
  EXPECT_NE(res.supernode[1], res.supernode[2]);
  // Single surviving minor edge contributes one z to each side.
  EXPECT_EQ(res.aggregate[0], 1);
  EXPECT_EQ(res.aggregate[3], 1);
  EXPECT_EQ(ledger.rounds(), 1);
}

TEST(Network, AggregationSkipsSelfLoops) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // parallel
  g.add_edge(1, 2);
  Ledger ledger;
  Network net(g, ledger);
  // Contract the first {0,1} edge: the second becomes a self-loop in G'.
  const std::vector<bool> contract = {true, false, false};
  const std::vector<std::int64_t> x = {0, 0, 0};
  const auto res = net.round<SumAgg, SumAgg>(
      contract, x, [](EdgeId, const std::int64_t&, const std::int64_t&) {
        return std::pair<std::int64_t, std::int64_t>{1, 1};
      });
  EXPECT_EQ(res.aggregate[0], 1);  // only the {1,2} edge survives
  EXPECT_EQ(res.aggregate[2], 1);
}

TEST(Network, AllAggregateAndPartAggregate) {
  const WeightedGraph g = cycle_graph(6);
  Ledger ledger;
  Network net(g, ledger);
  std::vector<std::int64_t> x = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(net.all_aggregate<SumAgg>(x), 21);
  // Parts: edges {0-1},{1-2} in one part and {3-4} in another.
  std::vector<bool> in_part(static_cast<std::size_t>(g.m()), false);
  in_part[0] = in_part[1] = in_part[3] = true;
  const auto parts = net.part_aggregate<SumAgg>(in_part, x);
  EXPECT_EQ(parts[0], 1 + 2 + 3);
  EXPECT_EQ(parts[2], 1 + 2 + 3);
  EXPECT_EQ(parts[3], 4 + 5);
  EXPECT_EQ(parts[5], 6);
  EXPECT_EQ(ledger.rounds(), 2);
}

TEST(Network, AllAggregateRequiresConnectivity) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  Ledger ledger;
  Network net(g, ledger);
  const std::vector<std::int64_t> x = {1, 2, 3};
  EXPECT_THROW(net.all_aggregate<SumAgg>(x), invariant_error);
}

TEST(OrientTree, RejectsEdgeSetThatDoesNotSpan) {
  // A triangle on {0, 1, 2} leaves node 3 unreached: once the merge loop
  // runs out of outgoing tree edges it must fail loudly, not spin.
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const std::vector<EdgeId> tree = {0, 1, 2};
  Ledger ledger;
  EXPECT_THROW((void)orient_tree(g, tree, /*root=*/0, ledger), invariant_error);
}

TEST(Network, NeighborhoodAggregateSumsIncidentEdges) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 7);
  Ledger ledger;
  Network net(g, ledger);
  std::vector<std::int64_t> agg;
  net.neighborhood_aggregate<SumAgg>(
      [&g](EdgeId e) {
        const Weight w = g.edge(e).w;
        return std::pair<std::int64_t, std::int64_t>{w, w};
      },
      agg);
  EXPECT_EQ(agg[0], 5);
  EXPECT_EQ(agg[1], 12);
  EXPECT_EQ(agg[2], 7);
}

TEST(VirtualGraph, BetaCountsVirtualNodes) {
  VirtualGraph vg = VirtualGraph::wrap(path_graph(4));
  EXPECT_EQ(vg.beta(), 0);
  const NodeId v = vg.add_virtual_node();
  vg.graph.add_edge(0, v, 3);
  vg.graph.add_edge(2, v, 4);
  EXPECT_EQ(vg.beta(), 1);
  EXPECT_EQ(vg.graph.n(), 5);
}

TEST(VirtualGraph, Theorem14SettleMultiplier) {
  Ledger outer;
  Ledger inner;
  inner.charge(10);
  settle_virtual_execution(outer, inner, 3);
  EXPECT_EQ(outer.rounds(), 10 * 4);
  EXPECT_EQ(outer.counter("max_beta"), 3);
  // beta = 0 is a plain pass-through.
  Ledger outer2, inner2;
  inner2.charge(7);
  settle_virtual_execution(outer2, inner2, 0);
  EXPECT_EQ(outer2.rounds(), 7);
}

TEST(VirtualGraph, Lemma15MergesParallelEdgesTowardSubstitute) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 1, 3);  // parallel toward the node being virtualized
  g.add_edge(1, 2, 5);
  g.add_edge(2, 3, 7);
  Ledger ledger;
  const VirtualGraph vg = virtualize_node(VirtualGraph::wrap(g), 1, ledger);
  EXPECT_TRUE(vg.is_virtual[1]);
  EXPECT_EQ(vg.graph.n(), 4);
  EXPECT_EQ(vg.graph.m(), 3);  // {0,1} merged to weight 5, {1,2}, {2,3}
  Weight w01 = 0, w12 = 0;
  for (const Edge& e : vg.graph.edges()) {
    if ((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0)) w01 += e.w;
    if ((e.u == 1 && e.v == 2) || (e.u == 2 && e.v == 1)) w12 += e.w;
  }
  EXPECT_EQ(w01, 5);
  EXPECT_EQ(w12, 5);
  EXPECT_EQ(ledger.rounds(), 2);
}

TEST(Ledger, JsonExport) {
  Ledger l;
  l.charge(7);
  l.bump("widgets", 3);
  l.set_max("max_depth", 2);
  EXPECT_EQ(l.to_json(),
            "{\"rounds\": 7, \"counters\": {\"max_depth\": 2, \"widgets\": 3}}");
}

TEST(Ledger, ReverseOrderMergesKeepKeyOrderAndKinds) {
  // Counters live in a key-sorted table. Children whose keys arrive in
  // reverse order merge through all three compositions; the JSON must list
  // keys ascending, "max_" keys merged by max and all others by sum.
  Ledger a, b;
  a.charge(4);
  a.bump("zeta", 2);
  a.set_max("max_width", 3);
  a.bump("alpha", 1);
  b.charge(6);
  b.set_max("max_width", 8);
  b.bump("mid", 5);
  b.bump("alpha", 10);
  Ledger parent;
  parent.set_max("max_width", 5);
  parent.bump("zeta", 100);
  parent.charge_parallel(std::vector<Ledger>{a, b});
  EXPECT_EQ(parent.to_json(),
            "{\"rounds\": 6, \"counters\": {\"alpha\": 11, \"max_width\": 8, "
            "\"mid\": 5, \"zeta\": 102}}");

  Ledger seq;
  seq.charge(2);
  seq.bump("zz_last", 1);
  seq.set_max("max_width", 1);
  seq.bump("beta", 7);
  parent.charge_sequential(seq);
  EXPECT_EQ(parent.to_json(),
            "{\"rounds\": 8, \"counters\": {\"alpha\": 11, \"beta\": 7, "
            "\"max_width\": 8, \"mid\": 5, \"zeta\": 102, \"zz_last\": 1}}");

  Ledger inner;
  inner.charge(3);
  inner.bump("zz_last", 4);
  inner.set_max("max_width", 9);
  inner.bump("aardvark", 1);
  settle_virtual_execution(parent, inner, 2);  // 3 rounds x (2 + 1)
  EXPECT_EQ(parent.to_json(),
            "{\"rounds\": 17, \"counters\": {\"aardvark\": 1, \"alpha\": 11, "
            "\"beta\": 7, \"max_beta\": 2, \"max_width\": 9, \"mid\": 5, "
            "\"zeta\": 102, \"zz_last\": 5}}");
  EXPECT_EQ(parent.counters().front().first, "aardvark");
  EXPECT_EQ(parent.counters().back().first, "zz_last");
}

/// The string-keyed Ledger the fixed-slot one replaced (its kind asserts
/// left out), kept as the reference its counters(), counter() and
/// to_json() must reproduce.
class ReferenceLedger {
 public:
  using Counters = Ledger::Counters;
  void charge(std::int64_t r) { rounds_ += r; }
  void charge_parallel(std::span<const ReferenceLedger> children) {
    std::int64_t mx = 0;
    for (const ReferenceLedger& c : children) {
      mx = std::max(mx, c.rounds_);
      absorb_counters(c);
    }
    rounds_ += mx;
  }
  void charge_sequential(const ReferenceLedger& child) {
    rounds_ += child.rounds_;
    absorb_counters(child);
  }
  void bump(std::string_view key, std::int64_t v) { slot(key)->second += v; }
  void set_max(std::string_view key, std::int64_t v) {
    auto& s = slot(key)->second;
    s = std::max(s, v);
  }
  [[nodiscard]] std::int64_t counter(std::string_view key) const {
    const auto it = std::lower_bound(counters_.begin(), counters_.end(), key, KeyLess{});
    return it != counters_.end() && it->first == key ? it->second : 0;
  }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"rounds\": " << rounds_ << ", \"counters\": {";
    bool first = true;
    for (const auto& [k, v] : counters_) {
      if (!first) os << ", ";
      first = false;
      os << '\"' << k << "\": " << v;
    }
    os << "}}";
    return os.str();
  }
  void absorb_counter(std::string_view key, std::int64_t v) {
    merge_into(slot(key)->second, key, v);
  }
  void absorb_counters(const ReferenceLedger& child) {
    std::size_t from = 0;
    for (const auto& [k, v] : child.counters_) {
      const auto it = slot(k, from);
      merge_into(it->second, k, v);
      from = static_cast<std::size_t>(it - counters_.begin()) + 1;
    }
  }

 private:
  struct KeyLess {
    bool operator()(const Counters::value_type& a, std::string_view b) const {
      return std::string_view(a.first) < b;
    }
  };
  static bool is_max_key(std::string_view key) { return key.substr(0, 4) == "max_"; }
  static void merge_into(std::int64_t& s, std::string_view key, std::int64_t v) {
    s = is_max_key(key) ? std::max(s, v) : s + v;
  }
  Counters::iterator slot(std::string_view key, std::size_t from = 0) {
    auto it = std::lower_bound(counters_.begin() + static_cast<std::ptrdiff_t>(from),
                               counters_.end(), key, KeyLess{});
    if (it == counters_.end() || it->first != key) it = counters_.emplace(it, key, 0);
    return it;
  }
  std::int64_t rounds_ = 0;
  Counters counters_;
};

TEST(Ledger, FixedSlotsMatchStringKeyedReference) {
  // Every fixed key, ad-hoc keys sorting first ("aardvark"), last
  // ("zz_last") and between two fixed keys ("mid", "max_c"), and zero-valued
  // bumps, driven through every operation in seeded random order.
  std::vector<std::string_view> keys(kCounterNames.begin(), kCounterNames.end());
  for (const std::string_view k : {"aardvark", "zz_last", "mid", "max_c"}) keys.push_back(k);
  const auto is_max = [](std::string_view k) { return k.substr(0, 4) == "max_"; };
  Rng rng(2024);
  // Applies `ops` random single-counter operations to both ledgers.
  const auto drive = [&](Ledger& got, ReferenceLedger& want, int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::string_view k = keys[rng.next_below(keys.size())];
      const std::int64_t v = static_cast<std::int64_t>(rng.next_below(7)) - 2;
      const auto id = std::find(kCounterNames.begin(), kCounterNames.end(), k);
      switch (rng.next_below(4)) {
        case 0:  // absorb_counter: either kind, any sign
          got.absorb_counter(k, v);
          want.absorb_counter(k, v);
          break;
        case 1:  // the CounterId overload where the key has one
          if (is_max(k)) {
            if (id != kCounterNames.end())
              got.set_max(static_cast<CounterId>(id - kCounterNames.begin()), v);
            else
              got.set_max(k, v);
            want.set_max(k, v);
          } else {
            const std::int64_t w = v < 0 ? 0 : v;  // includes bumps by 0
            if (id != kCounterNames.end())
              got.bump(static_cast<CounterId>(id - kCounterNames.begin()), w);
            else
              got.bump(k, w);
            want.bump(k, w);
          }
          break;
        default:  // the string overload
          if (is_max(k)) {
            got.set_max(k, v);
            want.set_max(k, v);
          } else {
            got.bump(k, v < 0 ? 0 : v);
            want.bump(k, v < 0 ? 0 : v);
          }
      }
      const std::int64_t r = static_cast<std::int64_t>(rng.next_below(3));
      got.charge(r);
      want.charge(r);
    }
  };
  const auto expect_same = [&](const Ledger& got, const ReferenceLedger& want, int trial) {
    EXPECT_EQ(got.counters(), want.counters()) << "trial " << trial;
    EXPECT_EQ(got.to_json(), want.to_json()) << "trial " << trial;
    EXPECT_EQ(got.rounds(), want.rounds()) << "trial " << trial;
    EXPECT_EQ(got.num_counters(), want.counters().size()) << "trial " << trial;
    for (const std::string_view k : keys) EXPECT_EQ(got.counter(k), want.counter(k)) << k;
    EXPECT_EQ(got.counter("missing"), 0);
  };
  for (int trial = 0; trial < 200; ++trial) {
    Ledger got;
    ReferenceLedger want;
    drive(got, want, static_cast<int>(rng.next_below(6)));
    for (int step = 0; step < 4; ++step) {
      const std::size_t kids = rng.next_below(4);
      std::vector<Ledger> got_kids(kids);
      std::vector<ReferenceLedger> want_kids(kids);
      for (std::size_t c = 0; c < kids; ++c)
        drive(got_kids[c], want_kids[c], static_cast<int>(rng.next_below(8)));
      if (kids == 1 && rng.next_bool(0.5)) {
        got.charge_sequential(got_kids[0]);
        want.charge_sequential(want_kids[0]);
      } else {
        got.charge_parallel(got_kids);
        want.charge_parallel(want_kids);
      }
      drive(got, want, static_cast<int>(rng.next_below(3)));
    }
    expect_same(got, want, trial);
    const Ledger copy = got;  // a copy carries every counter
    expect_same(copy, want, trial);
  }
}

TEST(Network, RoundAlgebraicProperties) {
  // Randomized property check of the Definition 9 semantics:
  //  (a) consensus is constant on each supernode and equals the fold of its
  //      members' inputs;
  //  (b) the aggregate is constant on each supernode;
  //  (c) with identity edge values, the aggregate is the identity.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 5 + static_cast<NodeId>(rng.next_below(30));
    WeightedGraph g = erdos_renyi_connected(n, 0.2, rng);
    std::vector<bool> contract(static_cast<std::size_t>(g.m()), false);
    for (std::size_t e = 0; e < contract.size(); ++e) contract[e] = rng.next_bool(0.4);
    std::vector<std::int64_t> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.next_in(-100, 100);
    Ledger ledger;
    Network net(g, ledger);
    const auto res = net.round<SumAgg, SumAgg>(
        contract, x, [](EdgeId, const std::int64_t&, const std::int64_t&) {
          return std::pair<std::int64_t, std::int64_t>{0, 0};
        });
    std::map<NodeId, std::int64_t> fold;
    for (NodeId v = 0; v < n; ++v)
      fold[res.supernode[static_cast<std::size_t>(v)]] += x[static_cast<std::size_t>(v)];
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(res.consensus[static_cast<std::size_t>(v)],
                fold[res.supernode[static_cast<std::size_t>(v)]]);
      EXPECT_EQ(res.aggregate[static_cast<std::size_t>(v)], 0);  // identity z
      // Supernode ids are the minimum contained node id.
      EXPECT_LE(res.supernode[static_cast<std::size_t>(v)], v);
    }
  }
}

TEST(Corollary10, AlgorithmsRunUnchangedOnMinors) {
  // Borůvka on a minor of G equals Borůvka run directly on the minor graph
  // — the "operate on minors" property the model grants for free.
  Rng rng(51);
  WeightedGraph g = erdos_renyi_connected(30, 0.2, rng);
  std::vector<bool> contract(static_cast<std::size_t>(g.m()), false);
  // Contract a spanning forest fragment (first few BFS-tree edges).
  int budget = 8;
  Dsu dsu(g.n());
  for (EdgeId e = 0; e < g.m() && budget > 0; ++e) {
    if (dsu.unite(g.edge(e).u, g.edge(e).v)) {
      contract[static_cast<std::size_t>(e)] = true;
      --budget;
    }
  }
  const DerivedGraph minor = contract_edges(g, contract);
  std::vector<std::int64_t> cost(static_cast<std::size_t>(minor.graph.m()));
  for (auto& c : cost) c = rng.next_in(1, 50);

  Ledger ledger;
  const auto tree = boruvka_mst(minor.graph, cost, ledger);
  // Kruskal reference on the same minor.
  std::vector<double> dcost(cost.begin(), cost.end());
  const auto ref = kruskal_mst(minor.graph, dcost);
  std::int64_t tw = 0, rw = 0;
  for (const EdgeId e : tree) tw += cost[static_cast<std::size_t>(e)];
  for (const EdgeId e : ref) rw += cost[static_cast<std::size_t>(e)];
  EXPECT_EQ(tw, rw);
}

}  // namespace
}  // namespace umc::minoragg
