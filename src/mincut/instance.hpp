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

/// An instance: graph + spanning-tree edge ids + root + provenance.
struct Instance {
  WeightedGraph graph;
  std::vector<bool> is_virtual;        // per node
  std::vector<EdgeId> tree_edges;      // spanning tree of `graph`
  NodeId root = 0;
  /// Per edge of `graph`: the originating ORIGINAL tree edge id for
  /// candidate tree edges, kNoEdge otherwise.
  std::vector<EdgeId> origin;

  [[nodiscard]] int beta() const {
    int b = 0;
    for (const bool f : is_virtual) b += f ? 1 : 0;
    return b;
  }
};

/// Builds the initial instance from a host graph and spanning tree: no
/// virtual nodes; every tree edge is its own origin.
[[nodiscard]] Instance make_root_instance(const WeightedGraph& g,
                                          std::span<const EdgeId> tree_edges, NodeId root);

/// Endpoint-remapped copy of a graph: node v of `src` becomes
/// node_map[v] in the result (node_map[v] must be in [0, new_n)); edges
/// whose endpoints collide become self-loops and are dropped. This is the
/// uniform "absorb a region into a boundary/virtual node" operation behind
/// the cut-equivalent constructions of Sections 6, 7, and 9.
struct RemappedGraph {
  WeightedGraph graph;
  std::vector<EdgeId> origin;    // per new edge (copied from src_origin)
  std::vector<EdgeId> edge_map;  // src edge id -> new edge id, or kNoEdge
};
[[nodiscard]] RemappedGraph remap_graph(const WeightedGraph& src,
                                        std::span<const EdgeId> src_origin,
                                        std::span<const NodeId> node_map, NodeId new_n);
/// Same, rebuilt into `out` (its rows keep their capacity, so a leased one
/// does not reallocate them).
void remap_graph(const WeightedGraph& src, std::span<const EdgeId> src_origin,
                 std::span<const NodeId> node_map, NodeId new_n, RemappedGraph& out);

}  // namespace umc::mincut
