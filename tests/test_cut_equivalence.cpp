// Property tests for the cut-equivalent constructions at the heart of
// Sections 6 and 9: absorbing a region of the graph into a boundary /
// virtual node (build_sub_instance) preserves Cut(e, f) for every pair of
// surviving tree edges — Facts 24/25 and Lemma 43, checked against the
// reference cut machinery on random instances — and the between-subtree
// star minors built from a preorder supernode map are exactly the plain
// edge-contraction minors of contract_reference.hpp. The 1-respecting cut
// row every sub-instance of the 2-respecting recursion inherits
// (InstanceCore::cut) is checked against Theorem 18 rerun on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <mutex>
#include <numeric>
#include <string>

#include "contract_reference.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/instance.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/two_respect.hpp"
#include "tree/centroid.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {
namespace {

/// What the Cut-row probe saw during the solves of one test: sub-instances
/// per CutRowSource, G_down connectors compared, and every sub-instance
/// whose carried row or charge disagreed with a Theorem 18 rerun.
struct RowAudit {
  std::mutex mu;
  std::array<int, 5> instances{};
  int connectors = 0;
  std::vector<std::string> failures;
};
RowAudit* g_audit = nullptr;

/// The probe: builds the tree of the sub-instance whose carried row the
/// recursion is about to read, reruns Theorem 18 on it, and compares the
/// whole row (Cut_T(e) on tree edges, 0 elsewhere) and the rounds the read
/// charges with what the rerun computed and charged. Sibling star and pair
/// tasks call it concurrently.
void audit_carried_row(CutRowSource source, const InstanceCore& inst, NodeId root,
                       std::span<const EdgeId> tree_edges, std::int64_t rounds) {
  const RootedTree t(inst.graph, tree_edges, root);
  const HeavyLightDecomposition hld(t);
  minoragg::Ledger ledger;
  std::vector<Weight> fresh;
  (void)one_respecting_cuts(t, inst.origin, hld, ledger, fresh);
  const auto kind = static_cast<std::size_t>(source);
  std::string failure;
  if (ledger.rounds() != rounds)
    failure = "kind " + std::to_string(kind) + ": Theorem 18 charged " +
              std::to_string(ledger.rounds()) + ", the carried read charges " +
              std::to_string(rounds);
  int connectors = 0;  // tree edges that are no candidate: G_down's connectors
  for (EdgeId e = 0; e < inst.graph.m(); ++e) {
    const auto ue = static_cast<std::size_t>(e);
    if (t.is_tree_edge(e) && inst.origin[ue] == kNoEdge) ++connectors;
    if (failure.empty() && inst.cut[ue] != fresh[ue])
      failure = "kind " + std::to_string(kind) + " edge " + std::to_string(e) +
                (t.is_tree_edge(e) ? " (tree)" : " (non-tree)") + ": carried " +
                std::to_string(inst.cut[ue]) + ", rerun " + std::to_string(fresh[ue]);
  }
  const std::lock_guard<std::mutex> lock(g_audit->mu);
  ++g_audit->instances[kind];
  if (source == CutRowSource::kDown) g_audit->connectors += connectors;
  if (!failure.empty()) g_audit->failures.push_back(failure);
}

/// Installs the probe for one scope, and removes it on every exit path.
struct ProbeScope {
  explicit ProbeScope(RowAudit& audit) {
    g_audit = &audit;
    set_cut_row_probe(audit_carried_row);
  }
  ~ProbeScope() {
    set_cut_row_probe(nullptr);
    g_audit = nullptr;
  }
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;
};

TEST(CutEquivalence, CarriedCutRowMatchesTheorem18OnEverySubInstance) {
  // Seeded grid, ER and tree-plus-chords instances (a random tree with
  // chords, and a spider whose long legs drive the Lemma 23 recursion into
  // G_up / G_down), solved at the configured pool width so sibling tasks
  // read their parent's row concurrently.
  RowAudit audit;
  {
    const ProbeScope probe(audit);
    for (int which = 0; which < 8; ++which) {
      Rng rng(700 + static_cast<std::uint64_t>(which));
      WeightedGraph g;
      std::vector<EdgeId> tree;
      switch (which % 4) {
        case 0:
          g = random_planar_grid(8, 8, 0.4, rng);
          randomize_weights(g, 1, 100, rng);
          tree = wilson_random_spanning_tree(g, rng);
          break;
        case 1:
          g = erdos_renyi_connected(56, 0.12, rng);
          randomize_weights(g, 1, 50, rng);
          tree = bfs_spanning_tree(g, 0);
          break;
        case 2:
          g = random_tree(60, rng);
          for (int c = 0; c < 70; ++c) {
            const auto u = static_cast<NodeId>(rng.next_below(60));
            const auto v = static_cast<NodeId>(rng.next_below(60));
            if (u != v) g.add_edge(u, v, 1);
          }
          randomize_weights(g, 1, 30, rng);
          tree.resize(59);  // random_tree's edges come first
          std::iota(tree.begin(), tree.end(), EdgeId{0});
          break;
        default:
          g = spider(3, 36, 130, rng);  // tree = the three 36-edge legs
          randomize_weights(g, 1, 20, rng);
          tree.resize(108);
          std::iota(tree.begin(), tree.end(), EdgeId{0});
          break;
      }
      minoragg::Ledger ledger;
      TaskGraph::session(ThreadPool::configured_threads(),
                         [&] { (void)two_respecting_mincut(g, tree, 0, ledger); });
    }
  }
  EXPECT_TRUE(audit.failures.empty())
      << audit.failures.size() << " sub-instances disagree; first: " << audit.failures.front();
  const char* const names[] = {"branch", "star", "pair", "G_up", "G_down"};
  for (std::size_t kind = 0; kind < audit.instances.size(); ++kind)
    EXPECT_GT(audit.instances[kind], 0) << "no " << names[kind] << " sub-instance was checked";
  EXPECT_GT(audit.connectors, 0) << "no G_down connector was checked";
}

TEST(CutEquivalence, Lemma43BranchGraphsPreserveAllPairs) {
  Rng rng(3);
  for (int trial = 0; trial < 12; ++trial) {
    const NodeId n = 12 + static_cast<NodeId>(rng.next_below(25));
    WeightedGraph g = random_connected(n, 3 * n, rng);
    randomize_weights(g, 1, 20, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    // Root at the centroid, as the Section 9 recursion does.
    const RootedTree t0(g, tree, 0);
    const NodeId c = find_centroid(t0);
    const RootedTree tc(g, tree, c);
    if (tc.children(c).empty()) continue;

    InstanceCore src{g, std::vector<bool>(static_cast<std::size_t>(n), false),
                     std::vector<EdgeId>(static_cast<std::size_t>(g.m())), c, {}};
    std::iota(src.origin.begin(), src.origin.end(), EdgeId{0});
    fill_cut_row(src, tree);

    for (const NodeId child : tc.children(c)) {
      // Build H_i exactly as two_respect does: branch nodes keep their
      // identity, everything else maps to the virtual centroid (node 0).
      std::vector<NodeId> map(static_cast<std::size_t>(g.n()), 0);
      std::vector<NodeId> members;
      for (const NodeId v : tc.preorder()) {
        if (!tc.is_ancestor(child, v)) continue;
        map[static_cast<std::size_t>(v)] = static_cast<NodeId>(1 + members.size());
        members.push_back(v);
      }
      InstanceCore sub;
      std::vector<EdgeId> edge_map;
      build_sub_instance(src, map, static_cast<NodeId>(1 + members.size()), sub, edge_map);
      std::vector<EdgeId> sub_tree;
      for (const EdgeId e : tree) {
        const EdgeId mapped = edge_map[static_cast<std::size_t>(e)];
        if (mapped != kNoEdge) sub_tree.push_back(mapped);
      }
      const RootedTree ts(sub.graph, sub_tree, 0);

      // Lemma 43 (3): Cut_{T'_i, H_i}(e, f) == Cut_{T, G}(e, f) for every
      // pair of surviving tree edges (including e == f).
      for (std::size_t i = 0; i < sub_tree.size(); ++i) {
        for (std::size_t j = i; j < sub_tree.size(); ++j) {
          const EdgeId se = sub_tree[i], sf = sub_tree[j];
          const EdgeId oe = sub.origin[static_cast<std::size_t>(se)];
          const EdgeId of = sub.origin[static_cast<std::size_t>(sf)];
          ASSERT_EQ(reference_cut_pair(ts, se, sf), reference_cut_pair(tc, oe, of))
              << "trial " << trial << " pair (" << oe << "," << of << ")";
        }
      }
    }
  }
}

TEST(CutEquivalence, Fact25StyleDownRegionAbsorption) {
  // Double broom: absorb the upper halves of both paths (and the root) into
  // a fresh virtual root; the lower-pair cut values must be unchanged.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId len = 10;
    WeightedGraph g = double_broom(len, 40, rng);
    randomize_weights(g, 1, 15, rng);
    std::vector<EdgeId> tree(static_cast<std::size_t>(2 * len));
    std::iota(tree.begin(), tree.end(), EdgeId{0});
    const RootedTree t(g, tree, 0);

    const NodeId a = 4, b = 6;  // keep P nodes a.., Q nodes b.. (1-indexed)
    std::vector<NodeId> map(static_cast<std::size_t>(g.n()), 0);
    NodeId next = 1;
    std::vector<NodeId> kept;
    for (NodeId i = a; i < len; ++i) {  // nodesP = 1..len
      map[static_cast<std::size_t>(1 + i)] = next++;
      kept.push_back(1 + i);
    }
    for (NodeId j = b; j < len; ++j) {  // nodesQ = len+1..2len
      map[static_cast<std::size_t>(len + 1 + j)] = next++;
      kept.push_back(len + 1 + j);
    }
    InstanceCore src{g, std::vector<bool>(static_cast<std::size_t>(g.n()), false),
                     std::vector<EdgeId>(static_cast<std::size_t>(g.m())), 0, {}};
    std::iota(src.origin.begin(), src.origin.end(), EdgeId{0});
    fill_cut_row(src, tree);
    InstanceCore rg;
    std::vector<EdgeId> edge_map;
    // Synthetic connectors r_down -> tops (weight never counted for pairs),
    // appended after the kept edges.
    const Edge connectors[2] = {Edge{0, map[static_cast<std::size_t>(1 + a)], 1},
                                Edge{0, map[static_cast<std::size_t>(len + 1 + b)], 1}};
    build_sub_instance(src, map, next, rg, edge_map, connectors);
    ASSERT_EQ(rg.origin[static_cast<std::size_t>(rg.graph.m() - 1)], kNoEdge);
    std::vector<EdgeId> sub_tree = {rg.graph.m() - 2, rg.graph.m() - 1};
    // Only INTERIOR tree edges stay tree edges; the boundary edges e_a/f_b
    // survive the remap as plain (non-tree) edges parallel to the
    // connectors, exactly as in the Lemma 23 construction.
    for (const EdgeId e : tree) {
      const EdgeId mapped = edge_map[static_cast<std::size_t>(e)];
      if (mapped == kNoEdge) continue;
      const bool interior_p = e >= static_cast<EdgeId>(a + 1) && e < static_cast<EdgeId>(len);
      const bool interior_q = e >= static_cast<EdgeId>(len + b + 1);
      if (interior_p || interior_q) sub_tree.push_back(mapped);
    }
    const RootedTree ts(rg.graph, sub_tree, 0);

    // Every surviving REAL tree-edge pair with one edge per path keeps its
    // cut value (Fact 25).
    for (const EdgeId se : sub_tree) {
      const EdgeId oe = rg.origin[static_cast<std::size_t>(se)];
      if (oe == kNoEdge || oe >= static_cast<EdgeId>(len)) continue;  // P side only
      for (const EdgeId sf : sub_tree) {
        const EdgeId of = rg.origin[static_cast<std::size_t>(sf)];
        if (of == kNoEdge || of < static_cast<EdgeId>(len)) continue;  // Q side only
        ASSERT_EQ(reference_cut_pair(ts, se, sf), reference_cut_pair(t, oe, of))
            << "trial " << trial;
      }
    }
  }
}

TEST(CutEquivalence, PreorderSupernodeMapAndBuilderReproduceContractEdges) {
  // The between-subtree star minors (Figure 4) come from a preorder walk
  // (a node joins its parent's supernode when its parent edge is
  // contracted) plus build_sub_instance. contract_edges is the reference:
  // supernode ids, the edge list in order, origins and OR-merged virtual
  // flags must all match it exactly.
  Rng rng(11);
  std::vector<NodeId> map, top;
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(40));
    const EdgeId m = std::min<EdgeId>(n - 1 + static_cast<EdgeId>(rng.next_below(3 * n)),
                                      n * (n - 1) / 2);
    WeightedGraph g = random_connected(n, m, rng);
    randomize_weights(g, 1, 30, rng);
    const auto tree = wilson_random_spanning_tree(g, rng);
    const NodeId root = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const RootedTree t(g, tree, root);
    // Contract each tree edge with probability 1/2 (every edge on some
    // trials, none on others), mark random nodes virtual, and give every
    // edge a distinct origin so a misplaced one is caught.
    const int keep_mode = trial % 10;  // 0: contract all, 1: contract none
    std::vector<bool> contract(static_cast<std::size_t>(g.m()), false);
    for (const EdgeId e : tree)
      contract[static_cast<std::size_t>(e)] =
          keep_mode == 0 || (keep_mode != 1 && rng.next_below(2) == 0);
    InstanceCore src{g, std::vector<bool>(static_cast<std::size_t>(n), false),
                     std::vector<EdgeId>(static_cast<std::size_t>(g.m())), root, {}};
    for (NodeId v = 0; v < n; ++v) src.is_virtual[static_cast<std::size_t>(v)] = rng.next_below(4) == 0;
    for (EdgeId e = 0; e < g.m(); ++e)
      src.origin[static_cast<std::size_t>(e)] = rng.next_below(5) == 0 ? kNoEdge : 1000 + e;
    fill_cut_row(src, tree);

    const DerivedGraph want = contract_edges(g, contract);
    const NodeId count = contracted_node_map(
        t, [&](NodeId v) { return contract[static_cast<std::size_t>(t.parent_edge(v))]; }, map,
        top);
    ASSERT_EQ(count, want.graph.n()) << "trial " << trial;
    ASSERT_EQ(map, want.node_map) << "trial " << trial;

    InstanceCore got;
    std::vector<EdgeId> edge_map;
    build_sub_instance(src, map, count, got, edge_map);
    ASSERT_EQ(got.graph.n(), want.graph.n());
    ASSERT_EQ(got.graph.m(), want.graph.m()) << "trial " << trial;
    ASSERT_EQ(got.origin.size(), want.edge_origin.size());
    std::vector<EdgeId> want_edge_map(static_cast<std::size_t>(g.m()), kNoEdge);
    for (EdgeId e = 0; e < want.graph.m(); ++e) {
      const Edge& ge = got.graph.edge(e);
      const Edge& we = want.graph.edge(e);
      EXPECT_EQ(ge.u, we.u);
      EXPECT_EQ(ge.v, we.v);
      EXPECT_EQ(ge.w, we.w);
      const EdgeId source = want.edge_origin[static_cast<std::size_t>(e)];
      EXPECT_EQ(got.origin[static_cast<std::size_t>(e)], src.origin[static_cast<std::size_t>(source)]);
      EXPECT_EQ(got.cut[static_cast<std::size_t>(e)], src.cut[static_cast<std::size_t>(source)]);
      want_edge_map[static_cast<std::size_t>(source)] = e;
    }
    EXPECT_EQ(edge_map, want_edge_map) << "trial " << trial;
    std::vector<bool> want_virtual(static_cast<std::size_t>(count), false);
    for (NodeId v = 0; v < n; ++v)
      if (src.is_virtual[static_cast<std::size_t>(v)])
        want_virtual[static_cast<std::size_t>(want.node_map[static_cast<std::size_t>(v)])] = true;
    EXPECT_EQ(got.is_virtual, want_virtual) << "trial " << trial;
    EXPECT_EQ(got.root, want.node_map[static_cast<std::size_t>(root)]);
  }
}

}  // namespace
}  // namespace umc::mincut
