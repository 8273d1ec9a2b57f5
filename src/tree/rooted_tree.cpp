#include "tree/rooted_tree.hpp"

#include "util/scratch.hpp"

namespace umc {

RootedTree::RootedTree(const WeightedGraph& g, std::span<const EdgeId> tree_edges, NodeId root) {
  rebuild(g, tree_edges, root);
}

void RootedTree::rebuild(const WeightedGraph& g, std::span<const EdgeId> tree_edges,
                         NodeId root) {
  const NodeId n = g.n();
  UMC_ASSERT(root >= 0 && root < n);
  g_ = &g;
  root_ = root;
  // Re-rooting may pass this tree's own tree_edges(), which assign() must
  // not read from.
  if (tree_edges.data() != tree_edges_.data() || tree_edges.size() != tree_edges_.size())
    tree_edges_.assign(tree_edges.begin(), tree_edges.end());
  UMC_ASSERT_MSG(static_cast<NodeId>(tree_edges_.size()) == n - 1,
                 "a spanning tree has exactly n-1 edges");
  is_tree_edge_.assign(static_cast<std::size_t>(g.m()), false);
  for (const EdgeId e : tree_edges_) {
    UMC_ASSERT(e >= 0 && e < g.m());
    UMC_ASSERT_MSG(!is_tree_edge_[static_cast<std::size_t>(e)], "duplicate tree edge");
    is_tree_edge_[static_cast<std::size_t>(e)] = true;
  }

  const std::size_t un = static_cast<std::size_t>(n);
  parent_.assign(un, kNoNode);
  node_.assign(un, NodeRec{});
  ids_.resize(2 * un - 1);

  // Iterative DFS over tree edges only. A node's tree neighbors are pushed
  // in reverse adjacency order, so they pop — and their subtrees fill the
  // preorder — in adjacency order.
  ScratchLease<std::vector<NodeId>> stack_s;
  std::vector<NodeId>& stack = *stack_s;
  stack.assign(1, root);
  node_[idx(root)].depth = 0;
  NodeId pre = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    node_[idx(v)].pre = pre;
    ids_[static_cast<std::size_t>(pre++)] = v;
    const std::span<const AdjEntry> adj = g.adj(v);
    for (std::size_t i = adj.size(); i-- > 0;) {
      const AdjEntry& a = adj[i];
      if (!is_tree_edge_[static_cast<std::size_t>(a.edge)]) continue;
      NodeRec& c = node_[idx(a.to)];
      if (c.depth != -1) continue;  // the parent
      c.depth = node_[idx(v)].depth + 1;
      c.parent_edge = a.edge;
      parent_[idx(a.to)] = v;
      stack.push_back(a.to);
    }
  }
  UMC_ASSERT_MSG(pre == n, "tree edges do not span the graph");

  // CSR child lists: count, prefix-sum into [n, 2n-1), then place children
  // in preorder, which lists each node's children in adjacency order.
  for (const NodeId p : parent_)
    if (p != kNoNode) ++node_[idx(p)].child_end;
  std::int32_t off = n;
  for (NodeRec& r : node_) {
    const std::int32_t count = r.child_end;
    r.child_begin = r.child_end = off;
    off += count;
  }
  for (std::size_t i = 1; i < un; ++i) {
    const NodeId v = ids_[i];
    ids_[static_cast<std::size_t>(node_[idx(parent_[idx(v)])].child_end++)] = v;
  }
  for (std::size_t i = un; i-- > 1;) {
    const NodeId v = ids_[i];
    node_[idx(parent_[idx(v)])].subtree_size += node_[idx(v)].subtree_size;
  }
}

NodeId RootedTree::bottom(EdgeId e) const {
  UMC_ASSERT_MSG(is_tree_edge(e), "bottom() requires a tree edge");
  const Edge& ed = host().edge(e);
  return depth(ed.u) > depth(ed.v) ? ed.u : ed.v;
}

}  // namespace umc
