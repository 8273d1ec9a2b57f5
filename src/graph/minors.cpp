#include "graph/minors.hpp"

#include <utility>

#include "graph/dsu.hpp"

namespace umc {

DerivedGraph contract_edges(const WeightedGraph& g, const std::vector<bool>& contract) {
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
  out.graph = WeightedGraph(next, std::move(edges));
  return out;
}

DerivedGraph induced_subgraph(const WeightedGraph& g, const std::vector<bool>& keep) {
  UMC_ASSERT(static_cast<NodeId>(keep.size()) == g.n());
  DerivedGraph out;
  out.node_map.assign(static_cast<std::size_t>(g.n()), kNoNode);
  NodeId next = 0;
  for (NodeId v = 0; v < g.n(); ++v)
    if (keep[static_cast<std::size_t>(v)]) out.node_map[static_cast<std::size_t>(v)] = next++;
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId u = out.node_map[static_cast<std::size_t>(ed.u)];
    const NodeId v = out.node_map[static_cast<std::size_t>(ed.v)];
    if (u == kNoNode || v == kNoNode) continue;
    edges.push_back(Edge{u, v, ed.w});
    out.edge_origin.push_back(e);
  }
  out.graph = WeightedGraph(next, std::move(edges));
  return out;
}

}  // namespace umc
