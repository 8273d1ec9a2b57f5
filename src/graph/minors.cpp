#include "graph/minors.hpp"


namespace umc {

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
  out.graph.assign(next, edges);
  return out;
}

}  // namespace umc
