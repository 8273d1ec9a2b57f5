#include "graph/graph.hpp"

#include <utility>

namespace umc {

namespace {

void check_edge(NodeId n, const Edge& e) {
  UMC_ASSERT(e.u >= 0 && e.u < n);
  UMC_ASSERT(e.v >= 0 && e.v < n);
  UMC_ASSERT_MSG(e.u != e.v, "self-loops are not representable");
  UMC_ASSERT_MSG(e.w > 0, "edge weights must be positive");
}

}  // namespace

void WeightedGraph::assign(NodeId n, std::span<const Edge> edges) {
  UMC_ASSERT(n >= 0);
  for (const Edge& e : edges) check_edge(n, e);
  n_ = n;
  edges_.assign(edges.begin(), edges.end());
  csr_.rebuild(n, edges_);
  csr_valid_.store(true, std::memory_order_relaxed);
}

void WeightedGraph::reserve(NodeId nodes, EdgeId edges) {
  UMC_ASSERT(nodes >= 0 && edges >= 0);
  edges_.reserve(static_cast<std::size_t>(edges));
}

NodeId WeightedGraph::add_node() {
  csr_valid_ = false;
  return n_++;
}

EdgeId WeightedGraph::add_edge(NodeId u, NodeId v, Weight w) {
  check_edge(n_, Edge{u, v, w});
  edges_.push_back(Edge{u, v, w});
  csr_valid_ = false;
  return static_cast<EdgeId>(edges_.size() - 1);
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

WeightedGraph& WeightedGraph::operator=(const WeightedGraph& o) {
  if (this != &o) {
    n_ = o.n_;
    edges_ = o.edges_;
    csr_valid_.store(false, std::memory_order_relaxed);
  }
  return *this;
}

WeightedGraph& WeightedGraph::operator=(WeightedGraph&& o) noexcept {
  if (this != &o) {
    n_ = o.n_;
    edges_ = std::move(o.edges_);
    csr_ = std::move(o.csr_);
    csr_valid_.store(o.csr_valid_.exchange(false, std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  return *this;
}

const CsrAdjacency& WeightedGraph::csr() const {
  if (csr_valid_.load(std::memory_order_acquire)) return csr_;
  const std::lock_guard<std::mutex> lock(csr_mu_);
  if (!csr_valid_.load(std::memory_order_relaxed)) {
    csr_.rebuild(n(), edges_);
    csr_valid_.store(true, std::memory_order_release);
  }
  return csr_;
}

void CsrAdjacency::rebuild(NodeId n, std::span<const Edge> edges) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) offsets[v + 1] += offsets[v];
  entries.resize(2 * edges.size());
  // Fill through the offsets as cursors, then shift them back.
  for (EdgeId id = 0; id < static_cast<EdgeId>(edges.size()); ++id) {
    const Edge& e = edges[static_cast<std::size_t>(id)];
    entries[static_cast<std::size_t>(offsets[static_cast<std::size_t>(e.u)]++)] = AdjEntry{e.v, id};
    entries[static_cast<std::size_t>(offsets[static_cast<std::size_t>(e.v)]++)] = AdjEntry{e.u, id};
  }
  for (std::size_t v = static_cast<std::size_t>(n); v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
}

}  // namespace umc
