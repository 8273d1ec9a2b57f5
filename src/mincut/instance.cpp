#include "mincut/instance.hpp"

#include "util/scratch.hpp"

namespace umc::mincut {

Instance make_root_instance(const WeightedGraph& g, std::span<const EdgeId> tree_edges,
                            NodeId root) {
  Instance inst;
  inst.graph.assign(g.n(), g.edges());
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.tree_edges.assign(tree_edges.begin(), tree_edges.end());
  inst.root = root;
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  for (const EdgeId e : tree_edges) inst.origin[static_cast<std::size_t>(e)] = e;
  return inst;
}

void build_sub_instance(const InstanceCore& src, std::span<const NodeId> node_map,
                        NodeId new_n, InstanceCore& out, std::vector<EdgeId>& edge_map,
                        std::span<const Edge> extra) {
  const WeightedGraph& g = src.graph;
  UMC_ASSERT(static_cast<NodeId>(node_map.size()) == g.n());
  UMC_ASSERT(static_cast<EdgeId>(src.origin.size()) == g.m());
  UMC_ASSERT(static_cast<EdgeId>(src.cut.size()) == g.m());
  edge_map.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  out.origin.clear();
  out.cut.clear();
  ScratchLease<std::vector<Edge>> edges_s;
  std::vector<Edge>& edges = *edges_s;
  edges.clear();
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId u = node_map[static_cast<std::size_t>(ed.u)];
    const NodeId v = node_map[static_cast<std::size_t>(ed.v)];
    UMC_ASSERT(u >= 0 && u < new_n && v >= 0 && v < new_n);
    if (u == v) continue;  // region-internal edge: self-loop, dropped
    edge_map[static_cast<std::size_t>(e)] = static_cast<EdgeId>(edges.size());
    edges.push_back(Edge{u, v, ed.w});
    out.origin.push_back(src.origin[static_cast<std::size_t>(e)]);
    out.cut.push_back(src.cut[static_cast<std::size_t>(e)]);
  }
  edges.insert(edges.end(), extra.begin(), extra.end());
  out.origin.resize(edges.size(), kNoEdge);
  out.cut.resize(edges.size(), 0);
  out.graph.assign(new_n, edges);
  out.is_virtual.assign(static_cast<std::size_t>(new_n), false);
  for (NodeId v = 0; v < g.n(); ++v)
    if (src.is_virtual[static_cast<std::size_t>(v)])
      out.is_virtual[static_cast<std::size_t>(node_map[static_cast<std::size_t>(v)])] = true;
  out.root = node_map[static_cast<std::size_t>(src.root)];
}

}  // namespace umc::mincut
