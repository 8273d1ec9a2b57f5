#pragma once

// Reference edge contraction for tests: the plain minor of Definition 9's
// contraction step, which the solver's sub-instance builder
// (build_sub_instance over a contracted node map) must reproduce exactly.

#include <vector>

#include "graph/dsu.hpp"
#include "graph/minors.hpp"

namespace umc {

/// Contracts every edge e with contract[e] == true. Self-loops are removed;
/// parallel edges are kept (cuts need their individual weights). Supernode
/// ids are assigned by smallest contained original node id order.
inline DerivedGraph contract_edges(const WeightedGraph& g, const std::vector<bool>& contract) {
  UMC_ASSERT(static_cast<EdgeId>(contract.size()) == g.m());
  Dsu dsu(g.n());
  for (EdgeId e = 0; e < g.m(); ++e)
    if (contract[static_cast<std::size_t>(e)]) dsu.unite(g.edge(e).u, g.edge(e).v);

  DerivedGraph out;
  out.node_map.assign(static_cast<std::size_t>(g.n()), kNoNode);
  // Supernode ids in increasing order of their DSU representative's id.
  std::vector<NodeId> rep_to_id(static_cast<std::size_t>(g.n()), kNoNode);
  NodeId next = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const NodeId r = dsu.find(v);
    if (rep_to_id[static_cast<std::size_t>(r)] == kNoNode)
      rep_to_id[static_cast<std::size_t>(r)] = next++;
    out.node_map[static_cast<std::size_t>(v)] = rep_to_id[static_cast<std::size_t>(r)];
  }
  std::size_t kept = 0;
  for (EdgeId e = 0; e < g.m(); ++e)
    kept += !contract[static_cast<std::size_t>(e)] &&
            out.node_map[static_cast<std::size_t>(g.edge(e).u)] !=
                out.node_map[static_cast<std::size_t>(g.edge(e).v)];
  std::vector<Edge> edges;
  edges.reserve(kept);
  out.edge_origin.reserve(kept);
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (contract[static_cast<std::size_t>(e)]) continue;
    const Edge& ed = g.edge(e);
    const NodeId u = out.node_map[static_cast<std::size_t>(ed.u)];
    const NodeId v = out.node_map[static_cast<std::size_t>(ed.v)];
    if (u == v) continue;  // became a self-loop
    edges.push_back(Edge{u, v, ed.w});
    out.edge_origin.push_back(e);
  }
  out.graph.assign(next, edges);
  return out;
}

}  // namespace umc
