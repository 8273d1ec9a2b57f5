#include "graph/graph.hpp"

#include <utility>

#include "util/scratch.hpp"

namespace umc {

WeightedGraph::WeightedGraph(NodeId n, std::vector<Edge> edges)
    : edges_(std::move(edges)), adj_(static_cast<std::size_t>(n)) {
  UMC_ASSERT(n >= 0);
  ScratchLease<std::vector<std::int32_t>> degree_s;
  std::vector<std::int32_t>& degree = *degree_s;
  degree.assign(static_cast<std::size_t>(n), 0);
  for (const Edge& e : edges_) {
    UMC_ASSERT(e.u >= 0 && e.u < n);
    UMC_ASSERT(e.v >= 0 && e.v < n);
    UMC_ASSERT_MSG(e.u != e.v, "self-loops are not representable");
    UMC_ASSERT_MSG(e.w > 0, "edge weights must be positive");
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  }
  for (std::size_t v = 0; v < adj_.size(); ++v) adj_[v].reserve(static_cast<std::size_t>(degree[v]));
  for (EdgeId id = 0; id < m(); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    adj_[static_cast<std::size_t>(e.u)].push_back(AdjEntry{e.v, id});
    adj_[static_cast<std::size_t>(e.v)].push_back(AdjEntry{e.u, id});
  }
}

void WeightedGraph::reserve(NodeId nodes, EdgeId edges) {
  UMC_ASSERT(nodes >= 0 && edges >= 0);
  adj_.reserve(static_cast<std::size_t>(nodes));
  edges_.reserve(static_cast<std::size_t>(edges));
}

NodeId WeightedGraph::add_node() {
  adj_.emplace_back();
  csr_valid_ = false;
  return static_cast<NodeId>(adj_.size() - 1);
}

EdgeId WeightedGraph::add_edge(NodeId u, NodeId v, Weight w) {
  UMC_ASSERT(u >= 0 && u < n());
  UMC_ASSERT(v >= 0 && v < n());
  UMC_ASSERT_MSG(u != v, "self-loops are not representable");
  UMC_ASSERT_MSG(w > 0, "edge weights must be positive");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, w});
  adj_[static_cast<std::size_t>(u)].push_back(AdjEntry{v, id});
  adj_[static_cast<std::size_t>(v)].push_back(AdjEntry{u, id});
  csr_valid_ = false;
  return id;
}

Weight WeightedGraph::weighted_degree(NodeId v) const {
  Weight total = 0;
  for (const AdjEntry& a : adj(v)) total += edge(a.edge).w;
  return total;
}

Weight WeightedGraph::total_weight() const {
  Weight total = 0;
  for (const Edge& e : edges_) total += e.w;
  return total;
}

void WeightedGraph::set_weight(EdgeId e, Weight w) {
  UMC_ASSERT(e >= 0 && e < m());
  UMC_ASSERT_MSG(w > 0, "edge weights must be positive");
  edges_[static_cast<std::size_t>(e)].w = w;
}

const CsrAdjacency& WeightedGraph::csr() const {
  if (!csr_valid_) {
    csr_.offsets.assign(adj_.size() + 1, 0);
    std::size_t total = 0;
    for (std::size_t v = 0; v < adj_.size(); ++v) {
      total += adj_[v].size();
      csr_.offsets[v + 1] = static_cast<std::int32_t>(total);
    }
    csr_.entries.clear();
    csr_.entries.reserve(total);
    for (const std::vector<AdjEntry>& row : adj_)
      csr_.entries.insert(csr_.entries.end(), row.begin(), row.end());
    csr_valid_ = true;
  }
  return csr_;
}

}  // namespace umc
