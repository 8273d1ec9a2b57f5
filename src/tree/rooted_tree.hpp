#pragma once

// Rooted spanning trees over a host graph.
//
// A RootedTree is always a spanning tree of its host WeightedGraph: the
// 2-respecting machinery (Sections 5–9) builds a fresh instance graph per
// recursive call, so "tree over a node subset" never arises.
//
// Terminology matches Section 3: parent/child, top(e)/bottom(e), depth,
// subtree, ancestors/descendants, descending paths.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace umc {

/// Layout: flat arrays only, so a build costs O(1) heap allocations. The
/// parent ids form their own array (hl_construct keys its schedule table on
/// it); the other per-node fields share one record array; the preorder and
/// the CSR child lists share one id array. Callers on hot paths lease a
/// RootedTree (ScratchLease) and rebuild() it in place, which reuses the
/// previous tree's capacity.
class RootedTree {
 public:
  /// An empty tree; rebuild() before use (the ScratchLease idiom).
  RootedTree() = default;
  /// Builds from `n-1` tree edge ids that form a spanning tree of `g`.
  RootedTree(const WeightedGraph& g, std::span<const EdgeId> tree_edges, NodeId root);

  /// Re-roots this object over (g, tree_edges, root), reusing its buffers.
  /// `tree_edges` may be this tree's own tree_edges() (re-rooting in place).
  void rebuild(const WeightedGraph& g, std::span<const EdgeId> tree_edges, NodeId root);

  [[nodiscard]] const WeightedGraph& host() const { return *g_; }
  [[nodiscard]] NodeId n() const { return static_cast<NodeId>(parent_.size()); }
  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::span<const EdgeId> tree_edges() const { return tree_edges_; }

  /// kNoNode for the root.
  [[nodiscard]] NodeId parent(NodeId v) const { return parent_[idx(v)]; }
  /// Every node's parent id, indexed by node (kNoNode at the root).
  [[nodiscard]] std::span<const NodeId> parents() const { return parent_; }
  /// Edge id (in the host graph) to the parent; kNoEdge for the root.
  [[nodiscard]] EdgeId parent_edge(NodeId v) const { return node_[idx(v)].parent_edge; }
  [[nodiscard]] int depth(NodeId v) const { return node_[idx(v)].depth; }
  /// Children in host-adjacency order.
  [[nodiscard]] std::span<const NodeId> children(NodeId v) const {
    const NodeRec& r = node_[idx(v)];
    return {ids_.data() + r.child_begin, ids_.data() + r.child_end};
  }
  [[nodiscard]] NodeId subtree_size(NodeId v) const { return node_[idx(v)].subtree_size; }
  /// Position of v in preorder(); v's subtree is the preorder range
  /// [preorder_index(v), preorder_index(v) + subtree_size(v)).
  [[nodiscard]] NodeId preorder_index(NodeId v) const { return node_[idx(v)].pre; }

  /// Nodes in preorder (root first); children in host-adjacency order.
  [[nodiscard]] std::span<const NodeId> preorder() const {
    return {ids_.data(), parent_.size()};
  }

  /// True iff a is an ancestor of b (a == b counts; Section 3 convention).
  [[nodiscard]] bool is_ancestor(NodeId a, NodeId b) const {
    const NodeRec& ra = node_[idx(a)];
    const NodeId pb = node_[idx(b)].pre;
    return ra.pre <= pb && pb < ra.pre + ra.subtree_size;
  }

  /// True iff `e` (a host edge id) is one of this tree's edges.
  [[nodiscard]] bool is_tree_edge(EdgeId e) const { return is_tree_edge_[static_cast<std::size_t>(e)]; }

  /// bottom(e): the endpoint farther from the root. Requires a tree edge.
  [[nodiscard]] NodeId bottom(EdgeId e) const;
  /// top(e): the endpoint closer to the root. Requires a tree edge.
  [[nodiscard]] NodeId top(EdgeId e) const { return host().edge(e).other(bottom(e)); }

 private:
  [[nodiscard]] std::size_t idx(NodeId v) const {
    UMC_ASSERT(v >= 0 && v < n());
    return static_cast<std::size_t>(v);
  }

  struct NodeRec {
    EdgeId parent_edge = kNoEdge;
    int depth = -1;
    NodeId subtree_size = 1;
    NodeId pre = -1;  // preorder index
    // children(v) = ids_[child_begin, child_end)
    std::int32_t child_begin = 0;
    std::int32_t child_end = 0;
  };

  const WeightedGraph* g_ = nullptr;
  NodeId root_ = kNoNode;
  std::vector<EdgeId> tree_edges_;
  std::vector<bool> is_tree_edge_;
  std::vector<NodeId> parent_;
  std::vector<NodeRec> node_;
  /// [0, n): preorder; [n, 2n-1): child lists, grouped by parent.
  std::vector<NodeId> ids_;
};

}  // namespace umc
