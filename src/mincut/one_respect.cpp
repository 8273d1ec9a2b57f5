#include "mincut/one_respect.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "minoragg/network.hpp"
#include "minoragg/tree_primitives.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"

namespace umc::mincut {

namespace {

/// One Step 2b delivery: `delta` for target `target`, handed to node
/// `responsible`.
struct Delivery {
  NodeId responsible;
  NodeId target;
  Weight delta;
};

/// One (target, delta) entry of a Step 2b map row.
struct DeltaEntry {
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

/// The minimum of a Cut row over the candidate tree edges of a tree on n
/// nodes, absorbed in bottom-node order (ties keep the first), as Theorem
/// 18 reports it. parent_edge(v) is v's parent edge (kNoEdge at the root).
template <typename ParentEdge>
CutResult min_candidate_cut(NodeId n, ParentEdge&& parent_edge, std::span<const EdgeId> origin,
                            std::span<const Weight> cut) {
  CutResult best;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId pe = parent_edge(v);
    if (pe == kNoEdge) continue;
    const EdgeId orig = origin[static_cast<std::size_t>(pe)];
    if (orig != kNoEdge) best.absorb(CutResult{cut[static_cast<std::size_t>(pe)], orig, kNoEdge});
  }
  return best;
}

std::atomic<CutRowProbe> g_cut_row_probe{nullptr};

}  // namespace

std::int64_t one_respect_rounds(const RootedTree& t, const HeavyLightDecomposition& hld) {
  return 3 + 2 * minoragg::hl_subtree_sum_rounds(t, hld);
}

CutResult one_respecting_cuts(const RootedTree& t, std::span<const EdgeId> origin,
                              const HeavyLightDecomposition& hld, minoragg::Ledger& ledger,
                              std::vector<Weight>& cut) {
  const WeightedGraph& g = t.host();
  UMC_ASSERT(static_cast<EdgeId>(origin.size()) == g.m());
  const std::int64_t start = ledger.rounds();
  const minoragg::Network net(g, ledger);
  const auto un = static_cast<std::size_t>(g.n());

  // Step 1: A(v) = weighted degree — one aggregation round.
  ScratchLease<std::vector<Weight>> a_s, corr_s;
  std::vector<Weight>& a = *a_s;
  net.neighborhood_aggregate<SumAgg>(
      [&g](EdgeId e) {
        const Weight w = g.edge(e).w;
        return std::pair<std::int64_t, std::int64_t>{w, w};
      },
      a);

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
  net.neighborhood_aggregate<SumAgg>(
      [&](EdgeId e) {
        const Edge& ed = g.edge(e);
        const NodeId l = lca[static_cast<std::size_t>(e)];
        std::int64_t to_u = 0, to_v = 0;
        if (l == ed.u) to_u = -2 * ed.w;
        if (l == ed.v) to_v = -2 * ed.w;
        return std::pair{to_u, to_v};
      },
      *corr_s);
  for (std::size_t v = 0; v < un; ++v) a[v] += (*corr_s)[v];

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
    std::sort(deliveries.begin(), deliveries.end(), [](const Delivery& x, const Delivery& y) {
      return x.responsible < y.responsible;
    });
    // The subtree sum of the key-wise map aggregator, folded bottom-up in
    // reverse preorder into one flat arena: v's row is its own deliveries
    // plus its children's rows, key-sorted with one entry per key. Only
    // key v is read at v, so a child c's key c is dead above c and is
    // dropped: a row holds keys of v and its ancestors only. It is charged
    // with step 3 below.
    ScratchLease<std::vector<DeltaEntry>> arena_s, merge_s;
    ScratchLease<std::vector<std::int32_t>> row_s;
    std::vector<DeltaEntry>& arena = *arena_s;
    std::vector<DeltaEntry>& merge = *merge_s;
    std::vector<std::int32_t>& row = *row_s;  // v's row: arena[row[2v], row[2v+1])
    arena.clear();
    row.resize(2 * un);
    const std::span<const NodeId> pre = t.preorder();
    for (std::size_t i = un; i-- > 0;) {
      const NodeId v = pre[i];
      const auto vu = static_cast<std::size_t>(v);
      merge.clear();
      // Deliveries are sorted by responsible node: v's are one range.
      const auto first = std::lower_bound(
          deliveries.begin(), deliveries.end(), v,
          [](const Delivery& d, NodeId x) { return d.responsible < x; });
      for (auto it = first; it != deliveries.end() && it->responsible == v; ++it)
        merge.push_back(DeltaEntry{it->target, it->delta});
      for (const NodeId c : t.children(v)) {
        const auto cu = static_cast<std::size_t>(c);
        for (std::int32_t x = row[2 * cu]; x < row[2 * cu + 1]; ++x)
          if (arena[static_cast<std::size_t>(x)].target != c)
            merge.push_back(arena[static_cast<std::size_t>(x)]);
      }
      std::sort(merge.begin(), merge.end(),
                [](const DeltaEntry& x, const DeltaEntry& y) { return x.target < y.target; });
      const std::size_t start = arena.size();
      for (const DeltaEntry& d : merge) {
        if (arena.size() > start && arena.back().target == d.target)
          arena.back().delta += d.delta;
        else
          arena.push_back(d);
        if (d.target == v) a[vu] += d.delta;
      }
      row[2 * vu] = static_cast<std::int32_t>(start);
      row[2 * vu + 1] = static_cast<std::int32_t>(arena.size());
    }
  }

  // Step 3: Cut(parent_edge(x)) = subtree sum of A at x.
  ScratchLease<std::vector<std::int64_t>> sums_s;
  const std::vector<std::int64_t>& sums = *sums_s;
  minoragg::hl_subtree_sums<SumAgg>(t, hld, std::span<const std::int64_t>(a.data(), a.size()),
                                    ledger, *sums_s);
  // Step 2b's subtree sum ran over the same tree, and a subtree sum's charge
  // depends on the tree alone, not on the payload.
  ledger.charge(minoragg::hl_subtree_sum_rounds(t, hld));
  UMC_ASSERT_MSG(ledger.rounds() - start == one_respect_rounds(t, hld),
                 "Theorem 18 charges what a carried Cut row is charged");

  cut.assign(static_cast<std::size_t>(g.m()), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const EdgeId pe = t.parent_edge(v);
    if (pe != kNoEdge) cut[static_cast<std::size_t>(pe)] = sums[static_cast<std::size_t>(v)];
  }
  return min_candidate_cut(
      t.n(), [&t](NodeId v) { return t.parent_edge(v); }, origin, cut);
}

CutResult carried_one_respecting_cuts(CutRowSource source, const RootedTree& t,
                                      const HeavyLightDecomposition& hld,
                                      const InstanceCore& inst, minoragg::Ledger& ledger) {
  UMC_ASSERT(&t.host() == &inst.graph);
  UMC_ASSERT(static_cast<EdgeId>(inst.cut.size()) == inst.graph.m());
  const std::int64_t rounds = one_respect_rounds(t, hld);
  if (const CutRowProbe probe = g_cut_row_probe.load(std::memory_order_acquire)) {
    ScratchLease<std::vector<EdgeId>> tree_s;
    std::vector<EdgeId>& tree = *tree_s;
    tree.clear();
    for (NodeId v = 0; v < t.n(); ++v)
      if (t.parent_edge(v) != kNoEdge) tree.push_back(t.parent_edge(v));
    probe(source, inst, t.root(), tree, rounds);
  }
  ledger.charge(rounds);
  return min_candidate_cut(
      t.n(), [&t](NodeId v) { return t.parent_edge(v); }, inst.origin, inst.cut);
}

bool canonical_path_pair(NodeId root, std::span<const SpiderLeg> legs) {
  if (root != 0 || legs.size() != 2) return false;
  NodeId next = 1;
  for (const SpiderLeg& leg : legs)
    for (const NodeId v : leg.nodes)
      if (v != next++) return false;
  return true;
}

std::int64_t spider_one_respect_rounds(std::span<const SpiderLeg> legs) {
  std::uint64_t l1 = 0, l2 = 0;  // the two longest legs, l1 >= l2
  for (const SpiderLeg& leg : legs) {
    const std::uint64_t len = leg.nodes.size();
    UMC_ASSERT(len >= 1);
    if (len > l1) {
      l2 = l1;
      l1 = len;
    } else if (len > l2) {
      l2 = len;
    }
  }
  std::int64_t sum_rounds = 2 + ceil_log2(l1 + 1);
  if (legs.size() >= 2) sum_rounds += 2 + ceil_log2(l2);
  return 3 + 2 * sum_rounds;
}

CutResult carried_spider_cuts(CutRowSource source, const InstanceCore& inst,
                              std::span<const SpiderLeg> legs, minoragg::Ledger& ledger) {
  const auto n = static_cast<std::size_t>(inst.graph.n());
  UMC_ASSERT(!legs.empty());
  UMC_ASSERT(static_cast<EdgeId>(inst.cut.size()) == inst.graph.m());
  // Each node's parent and parent edge, straight from the legs.
  ScratchLease<std::vector<NodeId>> parents_s;
  ScratchLease<std::vector<EdgeId>> parent_edge_s;
  std::vector<NodeId>& parents = *parents_s;
  std::vector<EdgeId>& parent_edge = *parent_edge_s;
  parents.assign(n, kNoNode);
  parent_edge.assign(n, kNoEdge);
  std::size_t placed = 1;  // the root
  for (const SpiderLeg& leg : legs) {
    UMC_ASSERT(leg.nodes.size() == leg.edges.size());
    NodeId up = inst.root;
    for (std::size_t i = 0; i < leg.nodes.size(); ++i) {
      const auto v = static_cast<std::size_t>(leg.nodes[i]);
      UMC_ASSERT_MSG(leg.nodes[i] != inst.root && parent_edge[v] == kNoEdge,
                     "spider legs are disjoint and avoid the root");
      UMC_ASSERT(inst.graph.edge(leg.edges[i]).other(leg.nodes[i]) == up);
      parents[v] = up;
      parent_edge[v] = leg.edges[i];
      up = leg.nodes[i];
    }
    placed += leg.nodes.size();
  }
  UMC_ASSERT_MSG(placed == n, "the spider spans the instance graph");

  // Lemma 47: the HL construction's charge.
  if (canonical_path_pair(inst.root, legs))
    minoragg::hl_path_pair_schedule_charge(legs[0].nodes.size(), legs[1].nodes.size(), ledger);
  else
    minoragg::hl_schedule_charge(parents, ledger);

  // Theorem 18, read off the carried row.
  const std::int64_t rounds = spider_one_respect_rounds(legs);
  if (const CutRowProbe probe = g_cut_row_probe.load(std::memory_order_acquire)) {
    ScratchLease<std::vector<EdgeId>> tree_s;
    std::vector<EdgeId>& tree = *tree_s;
    tree.clear();
    for (const SpiderLeg& leg : legs) tree.insert(tree.end(), leg.edges.begin(), leg.edges.end());
    probe(source, inst, inst.root, tree, rounds);
  }
  ledger.charge(rounds);
  return min_candidate_cut(
      inst.graph.n(), [&parent_edge](NodeId v) { return parent_edge[static_cast<std::size_t>(v)]; },
      inst.origin, inst.cut);
}

void fill_cut_row(InstanceCore& inst, std::span<const EdgeId> tree_edges) {
  const RootedTree t(inst.graph, tree_edges, inst.root);
  const HeavyLightDecomposition hld(t);
  minoragg::Ledger uncharged;
  (void)one_respecting_cuts(t, inst.origin, hld, uncharged, inst.cut);
}

void set_cut_row_probe(CutRowProbe probe) {
  g_cut_row_probe.store(probe, std::memory_order_release);
}

}  // namespace umc::mincut
