#pragma once

// Induced subgraphs, with mappings back to the source graph (Theorem 14's
// real-node part and the part-wise CONGEST tests). The solver's contracted
// minors are cut-equivalent sub-instances (mincut/instance.hpp); the plain
// edge-contraction reference they are tested against lives under tests/.

#include <vector>

#include "graph/graph.hpp"

namespace umc {

/// A graph derived from another, with provenance mappings.
struct DerivedGraph {
  WeightedGraph graph;
  /// node_map[v_orig] = node in `graph`, or kNoNode if v_orig was dropped.
  std::vector<NodeId> node_map;
  /// edge_origin[e_new] = source edge id in the original graph.
  std::vector<EdgeId> edge_origin;
};

/// Induced subgraph on {v : keep[v]}. Edges with a dropped endpoint vanish.
[[nodiscard]] DerivedGraph induced_subgraph(const WeightedGraph& g,
                                            const std::vector<bool>& keep);

}  // namespace umc
