#pragma once

// Weighted undirected multigraph — the communication-network substrate that
// every simulator and algorithm in this library operates on.
//
// Vertices are dense ids 0..n-1. Parallel edges and explicit weights are
// first-class (the paper treats weighted graphs with w(e) in [poly(n)], and
// tree packing replaces weights by multiplicities). Self-loops are rejected:
// they never affect cuts and the Minor-Aggregation model removes them on
// contraction.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace umc {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::int64_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

/// A weighted undirected edge. `u < v` is NOT required; id is its index.
struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight w = 1;

  /// The endpoint that is not `x`. Requires x ∈ {u, v}.
  [[nodiscard]] NodeId other(NodeId x) const {
    UMC_ASSERT(x == u || x == v);
    return x == u ? v : u;
  }
};

/// Entry of an adjacency list: neighbor and the id of the connecting edge.
struct AdjEntry {
  NodeId to = kNoNode;
  EdgeId edge = kNoEdge;
};

/// Compressed-sparse-row adjacency — one contiguous entry array plus n+1
/// offsets. The cache-friendly edge layout shared by the Minor-Aggregation
/// and CONGEST simulators' hot scans (per-list vectors scatter allocations;
/// CSR streams). Obtained from WeightedGraph::csr().
struct CsrAdjacency {
  std::vector<std::int32_t> offsets;  // size n+1
  std::vector<AdjEntry> entries;      // size 2m, grouped by node

  [[nodiscard]] std::span<const AdjEntry> row(NodeId v) const {
    return {entries.data() + offsets[static_cast<std::size_t>(v)],
            entries.data() + offsets[static_cast<std::size_t>(v) + 1]};
  }

  /// Rebuilds the adjacency of `edges` on n nodes in place: node v lists
  /// its incident edges in id order, u side before v side.
  void rebuild(NodeId n, std::span<const Edge> edges);
};

/// Weighted undirected multigraph with O(1) edge lookup by id: an edge row
/// plus its CSR adjacency (csr()), rebuilt lazily after the edge row grows.
/// Graphs built whole — the 2-respecting recursion's sub-instances — are
/// rebuilt in place by assign(), so a leased one keeps its rows' capacity.
class WeightedGraph {
 public:
  WeightedGraph() = default;
  explicit WeightedGraph(NodeId n) : n_(n) { UMC_ASSERT(n >= 0); }
  // A copy rebuilds its CSR cache on first use; a move takes it along.
  WeightedGraph(const WeightedGraph& o) : n_(o.n_), edges_(o.edges_) {}
  WeightedGraph(WeightedGraph&& o) noexcept { *this = std::move(o); }
  WeightedGraph& operator=(const WeightedGraph& o);
  WeightedGraph& operator=(WeightedGraph&& o) noexcept;

  /// Rebuilds this graph in place as the graph on n nodes with these edges
  /// (ids = positions), with add_edge()'s checks and adjacency order; the
  /// CSR is built at once.
  void assign(NodeId n, std::span<const Edge> edges);

  [[nodiscard]] NodeId n() const { return n_; }
  [[nodiscard]] EdgeId m() const { return static_cast<EdgeId>(edges_.size()); }

  /// Pre-sizes the edge store (never shrinks). Generators use this to avoid
  /// reallocation churn when building large graphs.
  void reserve(NodeId nodes, EdgeId edges);

  /// Appends an isolated vertex; returns its id.
  NodeId add_node();

  /// Appends edge {u, v} with weight w; returns its id. Rejects self-loops
  /// and non-positive weights (zero-weight edges never affect min-cuts and
  /// would break strict-inequality arguments like Fact 6).
  EdgeId add_edge(NodeId u, NodeId v, Weight w = 1);

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    UMC_ASSERT(e >= 0 && e < m());
    return edges_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// v's incident edges in id order (an edge's u side before its v side).
  [[nodiscard]] std::span<const AdjEntry> adj(NodeId v) const {
    UMC_ASSERT(v >= 0 && v < n());
    return csr().row(v);
  }

  [[nodiscard]] int degree(NodeId v) const {
    return static_cast<int>(adj(v).size());
  }

  /// Sum of weights of edges incident to v (parallel edges counted).
  [[nodiscard]] Weight weighted_degree(NodeId v) const;

  /// Sum of all edge weights.
  [[nodiscard]] Weight total_weight() const;

  /// Re-weights an existing edge. New weight must be positive.
  void set_weight(EdgeId e, Weight w);

  /// The CSR adjacency, built on first use after add_node/add_edge. Safe to
  /// call concurrently on an unchanging graph: the first caller builds it
  /// under a lock (set_weight does not invalidate it — entries carry no
  /// weights).
  [[nodiscard]] const CsrAdjacency& csr() const;

 private:
  NodeId n_ = 0;
  std::vector<Edge> edges_;
  mutable std::mutex csr_mu_;  // serializes the lazy build of csr_
  mutable CsrAdjacency csr_;
  mutable std::atomic<bool> csr_valid_{false};
};

}  // namespace umc
