#include "mincut/two_respect.hpp"

#include <algorithm>

#include "mincut/cut_values.hpp"
#include "mincut/subtree_instance.hpp"
#include "minoragg/tree_primitives.hpp"
#include "minoragg/virtual_graph.hpp"
#include "obs/trace.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

/// Constant-size instances are solved by direct evaluation (a constant
/// number of Definition 9 rounds in the model).
CutResult solve_base(const Instance& inst, minoragg::Ledger& ledger) {
  ledger.charge(1);
  ScratchLease<RootedTree> t_s;
  RootedTree& t = *t_s;
  t.rebuild(inst.graph, inst.tree_edges, inst.root);
  CutResult best;
  for (std::size_t i = 0; i < inst.tree_edges.size(); ++i) {
    const EdgeId e = inst.tree_edges[i];
    const EdgeId oe = inst.origin[static_cast<std::size_t>(e)];
    if (oe == kNoEdge) continue;
    best.absorb(CutResult{reference_cut_pair(t, e, e), oe, kNoEdge});
    for (std::size_t j = i + 1; j < inst.tree_edges.size(); ++j) {
      const EdgeId f = inst.tree_edges[j];
      const EdgeId of = inst.origin[static_cast<std::size_t>(f)];
      if (of == kNoEdge) continue;
      best.absorb(CutResult{reference_cut_pair(t, e, f), oe, of});
    }
  }
  return best;
}

/// Lemma 43's private branch instances H_i, one per child of the centroid
/// `t.root()`, in child order: node 0 is the branch's virtual centroid
/// (everything outside the branch), and the branch's j-th node in preorder
/// is node 1 + j. Each equals build_sub_instance over that node map — same
/// edges, ids, origins and virtual flags — but one pass over the preorder
/// and one over the edges serve every branch, instead of an n-sized map and
/// an m-edge scan each. Each H_i keeps its tree edges' Cut values (Lemma
/// 43: everything outside the branch sits on the far side of every branch
/// tree edge). They are rebuilt in place into subs[0, k), a row
/// that only grows, so a leased one keeps every instance's capacity.
/// Returns k.
std::size_t branch_instances(const Instance& inst, const RootedTree& t,
                             std::vector<Instance>& subs) {
  const WeightedGraph& g = inst.graph;
  const std::span<const NodeId> kids = t.children(t.root());
  const std::span<const NodeId> pre = t.preorder();
  const std::size_t k = kids.size();

  // A branch is its child's preorder range: branch[v] = its index (-1 at
  // the centroid), local[v] = 1 + v's rank in that range.
  ScratchLease<std::vector<int>> branch_s;
  ScratchLease<std::vector<NodeId>> local_s;
  std::vector<int>& branch = *branch_s;
  std::vector<NodeId>& local = *local_s;
  branch.assign(static_cast<std::size_t>(g.n()), -1);
  local.assign(static_cast<std::size_t>(g.n()), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t first = static_cast<std::size_t>(t.preorder_index(kids[i]));
    const NodeId size = t.subtree_size(kids[i]);
    for (NodeId j = 0; j < size; ++j) {
      const std::size_t v = static_cast<std::size_t>(pre[first + static_cast<std::size_t>(j)]);
      branch[v] = static_cast<int>(i);
      local[v] = 1 + j;
    }
  }

  // The edges each branch keeps — those with an endpoint inside it — in
  // id order, bucketed CSR-style (a cross-branch edge lands in both).
  ScratchLease<std::vector<std::int32_t>> begin_s;
  ScratchLease<std::vector<EdgeId>> bucket_s;
  std::vector<std::int32_t>& begin = *begin_s;
  std::vector<EdgeId>& bucket = *bucket_s;
  begin.assign(k + 1, 0);
  for (const Edge& ed : g.edges()) {
    const int bu = branch[static_cast<std::size_t>(ed.u)];
    const int bv = branch[static_cast<std::size_t>(ed.v)];
    if (bu >= 0) ++begin[static_cast<std::size_t>(bu) + 1];
    if (bv >= 0 && bv != bu) ++begin[static_cast<std::size_t>(bv) + 1];
  }
  for (std::size_t i = 0; i < k; ++i) begin[i + 1] += begin[i];
  bucket.resize(static_cast<std::size_t>(begin[k]));
  {
    ScratchLease<std::vector<std::int32_t>> cursor_s;
    std::vector<std::int32_t>& cursor = *cursor_s;
    cursor.assign(begin.begin(), begin.end() - 1);
    for (EdgeId e = 0; e < g.m(); ++e) {
      const Edge& ed = g.edge(e);
      const int bu = branch[static_cast<std::size_t>(ed.u)];
      const int bv = branch[static_cast<std::size_t>(ed.v)];
      if (bu >= 0) bucket[static_cast<std::size_t>(cursor[static_cast<std::size_t>(bu)]++)] = e;
      if (bv >= 0 && bv != bu)
        bucket[static_cast<std::size_t>(cursor[static_cast<std::size_t>(bv)]++)] = e;
    }
  }

  // Tree edges never cross branches, so one m-sized row maps each to its
  // id inside its own branch.
  ScratchLease<std::vector<EdgeId>> tree_local_s;
  std::vector<EdgeId>& tree_local = *tree_local_s;
  tree_local.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  if (subs.size() < k) subs.resize(k);
  ScratchLease<std::vector<Edge>> edges_s;
  std::vector<Edge>& edges = *edges_s;
  for (std::size_t i = 0; i < k; ++i) {
    const int bi = static_cast<int>(i);
    const auto to_local = [&](NodeId x) {
      return branch[static_cast<std::size_t>(x)] == bi ? local[static_cast<std::size_t>(x)] : 0;
    };
    const std::size_t lo = static_cast<std::size_t>(begin[i]);
    const std::size_t hi = static_cast<std::size_t>(begin[i + 1]);
    Instance& sub = subs[i];
    edges.clear();
    sub.origin.clear();
    sub.cut.clear();
    for (std::size_t x = lo; x < hi; ++x) {
      const EdgeId e = bucket[x];
      const Edge& ed = g.edge(e);
      if (t.is_tree_edge(e)) tree_local[static_cast<std::size_t>(e)] = static_cast<EdgeId>(x - lo);
      edges.push_back(Edge{to_local(ed.u), to_local(ed.v), ed.w});
      sub.origin.push_back(inst.origin[static_cast<std::size_t>(e)]);
      sub.cut.push_back(inst.cut[static_cast<std::size_t>(e)]);
    }
    const NodeId size = t.subtree_size(kids[i]);
    sub.graph.assign(1 + size, edges);
    sub.root = 0;  // the virtual centroid; re-rooted at the next centroid anyway
    sub.is_virtual.assign(static_cast<std::size_t>(1 + size), false);
    sub.is_virtual[0] = true;
    const std::size_t first = static_cast<std::size_t>(t.preorder_index(kids[i]));
    for (NodeId j = 0; j < size; ++j)
      sub.is_virtual[static_cast<std::size_t>(1 + j)] =
          inst.is_virtual[static_cast<std::size_t>(pre[first + static_cast<std::size_t>(j)])];
    sub.tree_edges.clear();
  }
  for (const EdgeId e : inst.tree_edges) {
    const int bi = branch[static_cast<std::size_t>(t.bottom(e))];
    subs[static_cast<std::size_t>(bi)].tree_edges.push_back(tree_local[static_cast<std::size_t>(e)]);
  }
  for (std::size_t i = 0; i < k; ++i)
    UMC_ASSERT(static_cast<NodeId>(subs[i].tree_edges.size()) == subs[i].graph.n() - 1);
  return k;
}

/// The recursion's top (depth 1) fills inst.cut; every deeper call reads
/// the row its branch instance inherited.
CutResult solve(Instance& inst, minoragg::Ledger& parent, int depth) {
  parent.set_max(minoragg::CounterId::max_general_depth, depth);
  // Logical clock: the centroid-recursion depth.
  UMC_OBS_SPAN_VAR_L(obs_solve, "mincut/general_solve", "mincut", depth);
  obs_solve.arg("n", inst.graph.n());
  if (inst.graph.n() <= 3) return solve_base(inst, parent);

  CutResult best;
  ScratchLease<std::vector<Instance>> subs_s;
  std::vector<Instance>& subs = *subs_s;
  std::size_t k = 0;
  {
    minoragg::Ledger local;
    // Root anywhere, find the centroid (Lemma 42), then re-root the same
    // (leased) tree at the centroid: the subtree instance of Theorem 39 and
    // the branch split below both use that rooting.
    ScratchLease<RootedTree> t_s;
    RootedTree& t = *t_s;
    t.rebuild(inst.graph, inst.tree_edges, inst.root);
    NodeId c = kNoNode;
    {
      ScratchLease<HeavyLightDecomposition> hld;
      minoragg::hl_construct(t, local, *hld);
      c = minoragg::find_centroid_ma(t, *hld, local);
    }
    t.rebuild(inst.graph, inst.tree_edges, c);
    best = depth == 1 ? root_between_subtree_mincut(t, inst, local)
                      : between_subtree_mincut(t, inst, local);
    minoragg::settle_virtual_execution(parent, local, inst.beta());

    // Lemma 43: private cut-equivalent branch instances H_i, each with its
    // own virtual centroid (node 0); node-disjoint, so scheduled together.
    // Build every branch instance first (cheap remaps), then solve them as
    // TaskGraph tasks: each writes a private slot, and the merge below runs
    // in child order — the same absorb/charge_parallel sequence the inline
    // path produces, so counters stay bit-identical at any width.
    k = branch_instances(inst, t, subs);
  }

  ScratchLease<std::vector<CutResult>> branch_best_s;
  ScratchLease<std::vector<minoragg::Ledger>> kids_s;
  std::vector<CutResult>& branch_best = *branch_best_s;
  std::vector<minoragg::Ledger>& kids = *kids_s;
  branch_best.assign(k, CutResult{});
  kids.assign(k, minoragg::Ledger{});
  {
    TaskGroup branches;
    for (std::size_t i = 0; i < k; ++i) {
      Instance& sub = subs[i];
      CutResult& slot = branch_best[i];
      minoragg::Ledger& kid = kids[i];
      branches.spawn([&sub, &slot, &kid, depth] {
        // TraceEvent carries at most two args: kind + pool_thread, always,
        // so every ttr_item is attributable to a worker in Perfetto. Depth
        // rides on the logical clock.
        UMC_OBS_SPAN_VAR_L(obs_item, "mincut/ttr_item", "mincut", depth);
        obs_item.arg("kind", 0);  // 0 = centroid branch
        obs_item.arg("pool_thread", ThreadPool::current_index());
        slot = solve(sub, kid, depth + 1);
      });
    }
    branches.join();
  }
  for (const CutResult& r : branch_best) best.absorb(r);
  parent.charge_parallel(kids);
  return best;
}

}  // namespace

CutResult two_respecting_mincut(const WeightedGraph& g, std::span<const EdgeId> tree_edges,
                                NodeId root, minoragg::Ledger& ledger) {
  Instance inst = make_root_instance(g, tree_edges, root);
  return solve(inst, ledger, 1);
}

}  // namespace umc::mincut
