#include "mincut/one_respect.hpp"

#include <algorithm>
#include <utility>

#include "minoragg/network.hpp"
#include "minoragg/tree_primitives.hpp"
#include "util/scratch.hpp"

namespace umc::mincut {

namespace {

/// Aggregation operator for the Theorem 18 delta routing: a key-sorted list
/// of (target ancestor, weight delta) pairs, merged key-wise. In the model
/// the support stays Õ(1) (targets are light-edge endpoints on the root
/// path, Fact 3); the simulation keeps all keys, which only affects memory.
struct DeltaMapAgg {
  using value_type = std::vector<std::pair<NodeId, Weight>>;
  static value_type identity() { return {}; }
  /// Key-wise sum. An empty operand yields the other one, moved when the
  /// caller hands it over, so folds through delta-free nodes copy nothing.
  template <typename X, typename Y>
  static value_type merge(X&& a, Y&& b) {
    if (a.empty()) return std::forward<Y>(b);
    if (b.empty()) return std::forward<X>(a);
    value_type out;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
        out.push_back(a[i++]);
      } else if (i == a.size() || b[j].first < a[i].first) {
        out.push_back(b[j++]);
      } else {
        out.emplace_back(a[i].first, a[i].second + b[j].second);
        ++i;
        ++j;
      }
    }
    return out;
  }
};

/// One Step 2b delivery: `delta` for target `target`, handed to node
/// `responsible`.
struct Delivery {
  NodeId responsible;
  NodeId target;
  Weight delta;
};

/// True iff `l` appears as the TOP endpoint of a light edge in `info` —
/// i.e. the node can address l as a delta target (Theorem 18's
/// "responsible" choice).
bool info_contains_top(const HlInfo& info, NodeId l) {
  for (const LightEdge& le : info.light_edges)
    if (le.top == l) return true;
  return false;
}

}  // namespace

OneRespectResult one_respecting_cuts(const RootedTree& t, std::span<const EdgeId> origin,
                                     const HeavyLightDecomposition& hld,
                                     minoragg::Ledger& ledger) {
  const WeightedGraph& g = t.host();
  UMC_ASSERT(static_cast<EdgeId>(origin.size()) == g.m());
  minoragg::Network net(g, ledger);

  // Step 1: A(v) = weighted degree — one aggregation round.
  std::vector<Weight> a = net.neighborhood_aggregate<SumAgg>([&g](EdgeId e) {
    const Weight w = g.edge(e).w;
    return std::pair<std::int64_t, std::int64_t>{w, w};
  });

  // Every edge derives its endpoints' LCA from their HL-info (Fact 4) once;
  // steps 2a and 2b both read it.
  ScratchLease<std::vector<NodeId>> lca_s;
  std::vector<NodeId>& lca = *lca_s;
  lca.resize(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    lca[static_cast<std::size_t>(e)] =
        HeavyLightDecomposition::lca_from_info(ed.u, hld.info(ed.u), ed.v, hld.info(ed.v));
  }

  // Step 2a: ancestor-descendant edges deliver -2w to their LCA (= upper
  // endpoint) in one aggregation round.
  {
    const auto corr = net.neighborhood_aggregate<SumAgg>([&](EdgeId e) {
      const Edge& ed = g.edge(e);
      const NodeId l = lca[static_cast<std::size_t>(e)];
      std::int64_t to_u = 0, to_v = 0;
      if (l == ed.u) to_u = -2 * ed.w;
      if (l == ed.v) to_v = -2 * ed.w;
      return std::pair{to_u, to_v};
    });
    for (NodeId v = 0; v < g.n(); ++v) a[static_cast<std::size_t>(v)] += corr[static_cast<std::size_t>(v)];
  }

  // Step 2b: non-ancestor-descendant edges route -2w to the LCA through a
  // subtree sum keyed by target. The responsible endpoint is one whose
  // HL-info lists the LCA as a light-edge top (Fact 4 guarantees >= one).
  {
    ScratchLease<std::vector<Delivery>> deliveries_s;
    std::vector<Delivery>& deliveries = *deliveries_s;
    deliveries.clear();
    ledger.charge(1);  // edges hand their (target, delta) to the responsible endpoint
    for (EdgeId e = 0; e < g.m(); ++e) {
      const Edge& ed = g.edge(e);
      const NodeId l = lca[static_cast<std::size_t>(e)];
      if (l == ed.u || l == ed.v) continue;  // handled in step 2a
      const NodeId responsible = info_contains_top(hld.info(ed.u), l) ? ed.u : ed.v;
      UMC_ASSERT_MSG(info_contains_top(hld.info(responsible), l),
                     "Fact 4: the LCA is a light-edge top of one endpoint");
      deliveries.push_back(Delivery{responsible, l, -2 * ed.w});
    }
    // Canonicalize: per node, sorted by target, one entry per target. Only
    // nodes that receive a delivery get a (exactly sized) row.
    std::sort(deliveries.begin(), deliveries.end(), [](const Delivery& x, const Delivery& y) {
      return x.responsible != y.responsible ? x.responsible < y.responsible
                                            : x.target < y.target;
    });
    std::vector<DeltaMapAgg::value_type> deltas(static_cast<std::size_t>(g.n()));
    for (std::size_t i = 0; i < deliveries.size();) {
      const NodeId r = deliveries[i].responsible;
      std::size_t end = i, keys = 0;
      for (; end < deliveries.size() && deliveries[end].responsible == r; ++end)
        keys += end == i || deliveries[end].target != deliveries[end - 1].target;
      DeltaMapAgg::value_type& row = deltas[static_cast<std::size_t>(r)];
      row.reserve(keys);
      for (; i < end; ++i) {
        if (!row.empty() && row.back().first == deliveries[i].target) {
          row.back().second += deliveries[i].delta;
        } else {
          row.emplace_back(deliveries[i].target, deliveries[i].delta);
        }
      }
    }
    const auto routed = minoragg::hl_subtree_sums<DeltaMapAgg>(t, hld, deltas, ledger);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const auto& [target, delta] : routed[static_cast<std::size_t>(v)]) {
        if (target == v) a[static_cast<std::size_t>(v)] += delta;
      }
    }
  }

  // Step 3: Cut(parent_edge(x)) = subtree sum of A at x.
  const auto sums = minoragg::hl_subtree_sums<SumAgg>(
      t, hld, std::span<const std::int64_t>(a.data(), a.size()), ledger);

  OneRespectResult out;
  out.cut.assign(static_cast<std::size_t>(g.m()), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const EdgeId pe = t.parent_edge(v);
    if (pe == kNoEdge) continue;
    out.cut[static_cast<std::size_t>(pe)] = sums[static_cast<std::size_t>(v)];
    const EdgeId orig = origin[static_cast<std::size_t>(pe)];
    if (orig != kNoEdge)
      out.best.absorb(CutResult{sums[static_cast<std::size_t>(v)], orig, kNoEdge});
  }
  return out;
}

}  // namespace umc::mincut
