#pragma once

// Shared vocabulary of the 2-respecting min-cut pipeline (Sections 5-9).
//
// Every sub-algorithm (path-to-path, star, between-subtree, general) works
// on an *instance*: a self-contained weighted graph with a spanning tree,
// possibly containing virtual nodes, whose tree edges carry provenance to
// the original spanning tree so results can be reported in original terms.
// Auxiliary edges introduced by the transformations (virtual-root
// connectors, split edges) carry origin == kNoEdge and are never candidates.

#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "tree/rooted_tree.hpp"

namespace umc::mincut {

inline constexpr Weight kInfWeight = std::numeric_limits<Weight>::max() / 4;

/// Best cut seen: value plus the defining tree edge(s) as ORIGINAL tree edge
/// ids. f == kNoEdge means a 1-respecting cut; e == kNoEdge means "no cut
/// found" (value == kInfWeight).
struct CutResult {
  Weight value = kInfWeight;
  EdgeId e = kNoEdge;
  EdgeId f = kNoEdge;

  [[nodiscard]] static CutResult better(const CutResult& a, const CutResult& b) {
    return a.value <= b.value ? a : b;
  }
  void absorb(const CutResult& other) { *this = better(*this, other); }
  [[nodiscard]] bool found() const { return value < kInfWeight; }
};

/// What every instance shape (general, path-to-path, star) carries: the
/// graph, its virtual nodes, edge provenance, the tree root and the
/// 1-respecting cut values of its tree.
struct InstanceCore {
  WeightedGraph graph;
  std::vector<bool> is_virtual;  // per node
  /// Per edge of `graph`: the originating ORIGINAL tree edge id for
  /// candidate tree edges, kNoEdge otherwise.
  std::vector<EdgeId> origin;
  NodeId root = 0;
  /// Per edge of `graph`: Cut_T(e) for the instance's tree edges, 0 for the
  /// rest. The top of the 2-respecting recursion fills it with Theorem 18
  /// once; every sub-instance is cut-equivalent to its parent on the tree
  /// edges it keeps, so build_sub_instance carries the parent's values
  /// over (DESIGN.md "Cut-equivalent sub-instances"). Hand-built instances
  /// fill it with fill_cut_row (one_respect.hpp).
  std::vector<Weight> cut;

  /// Number of virtual nodes (Theorem 14's beta).
  [[nodiscard]] int beta() const {
    int b = 0;
    for (const bool f : is_virtual) b += f ? 1 : 0;
    return b;
  }
};

/// A general instance: the core plus its spanning tree.
struct Instance : InstanceCore {
  std::vector<EdgeId> tree_edges;  // spanning tree of `graph`
};

/// Builds the initial instance from a host graph and spanning tree: no
/// virtual nodes; every tree edge is its own origin. The Cut row stays
/// empty until the recursion's top step (root_between_subtree_mincut) or
/// fill_cut_row fills it.
[[nodiscard]] Instance make_root_instance(const WeightedGraph& g,
                                          std::span<const EdgeId> tree_edges, NodeId root);

/// The uniform "absorb a region into a boundary/virtual node" operation
/// behind the cut-equivalent constructions of Sections 6-9: rebuilds `out`
/// (its rows keep their capacity, so a leased one does not reallocate them)
/// as `src` with node v renamed node_map[v] ∈ [0, new_n). Edges whose
/// endpoints collide become self-loops and are dropped; the rest keep their
/// order, weights, origins and Cut values. A new node is virtual iff some
/// node mapped to it is, and out.root = node_map[src.root]. edge_map[e] is
/// source edge e's new id, or kNoEdge if it was dropped. The `extra` edges
/// (new ids) follow the kept ones as auxiliary edges (origin kNoEdge, Cut
/// 0: a caller that makes one a tree edge sets its Cut).
void build_sub_instance(const InstanceCore& src, std::span<const NodeId> node_map,
                        NodeId new_n, InstanceCore& out, std::vector<EdgeId>& edge_map,
                        std::span<const Edge> extra = {});

/// Node map of contracting the tree edges of `t` (spanning its host) whose
/// bottom node v has contracted(v): one preorder walk puts such a v in its
/// parent's supernode, and supernodes are numbered in smallest-member
/// order, as plain edge contraction numbers them. `top` is scratch.
/// Returns the number of supernodes.
template <typename Contracted>
NodeId contracted_node_map(const RootedTree& t, Contracted&& contracted,
                           std::vector<NodeId>& map, std::vector<NodeId>& top) {
  const auto n = static_cast<std::size_t>(t.n());
  top.resize(n);
  for (const NodeId v : t.preorder())
    top[static_cast<std::size_t>(v)] =
        v != t.root() && contracted(v) ? top[static_cast<std::size_t>(t.parent(v))] : v;
  map.assign(n, kNoNode);  // indexed by top node until overwritten below
  NodeId next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    NodeId& id = map[static_cast<std::size_t>(top[v])];
    if (id == kNoNode) id = next++;
  }
  for (std::size_t v = 0; v < n; ++v)
    if (top[v] != static_cast<NodeId>(v)) map[v] = map[static_cast<std::size_t>(top[v])];
  return next;
}

}  // namespace umc::mincut
