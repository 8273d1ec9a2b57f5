#pragma once

// Spanning-tree constructions over a host graph: BFS trees (round-efficient
// communication backbones), Kruskal minimum spanning trees with arbitrary
// per-edge costs (the greedy tree-packing of Theorem 12 re-costs edges by
// packing load each iteration), a reusable chunk-parallel Borůvka MST (the
// tree-packing fast path), and uniform random spanning trees (Wilson) for
// randomized tests.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace umc {

/// Edge ids of a BFS spanning tree rooted at `root`. Requires connectivity.
[[nodiscard]] std::vector<EdgeId> bfs_spanning_tree(const WeightedGraph& g, NodeId root);

/// Kruskal MST edge ids under external per-edge costs (ties by edge id, so
/// the result is deterministic). `cost.size() == g.m()`.
[[nodiscard]] std::vector<EdgeId> kruskal_mst(const WeightedGraph& g,
                                              std::span<const double> cost);

/// Kruskal MST under the graph's own weights.
[[nodiscard]] std::vector<EdgeId> kruskal_mst(const WeightedGraph& g);

/// Uniform random spanning tree via Wilson's algorithm (loop-erased random
/// walks). Ignores weights. Requires connectivity.
[[nodiscard]] std::vector<EdgeId> wilson_random_spanning_tree(const WeightedGraph& g, Rng& rng);

/// Reusable deterministic Borůvka MST under external integer costs, with
/// ties broken by (cost, edge id) — the same strict total order the
/// Minor-Aggregation `minoragg::boruvka_mst` folds through MinPairAgg, so
/// both select the bit-identical unique MST. Built for the greedy
/// tree-packing loop, which runs ~2·λ·log m MSTs back to back over slowly
/// drifting costs: every internal buffer (DSU parents, component labels,
/// live-edge worklist, per-chunk candidate slots) persists across run()
/// calls, so steady-state iterations allocate nothing.
///
/// Parallelism: the per-phase minimum-outgoing-edge selection is split into
/// contiguous edge chunks whose candidate folds run as TaskGroup tasks when
/// a TaskGraph session is active (inline otherwise — the sequential
/// reference). Per-component minimum under a strict total order is
/// order-independent, so the selected edge set — and therefore the tree,
/// the phase count, and every downstream ledger charge — is bit-identical
/// at any thread width, including width 1.
class BoruvkaPacker {
 public:
  BoruvkaPacker() = default;

  struct Result {
    /// Tree edge ids in increasing id order; a view into packer-owned
    /// storage, valid until the next run() on this packer.
    std::span<const EdgeId> tree;
    /// Supernode-selection phases executed (`minoragg::boruvka_mst` spends
    /// one Definition 9 round per phase plus one termination-check round;
    /// mincut::charge_packing_iteration charges exactly that from this
    /// count).
    int phases = 0;
  };

  /// MST of `g` under `cost` (`cost.size() == g.m()`). Requires a connected
  /// graph with n >= 1.
  [[nodiscard]] Result run(const WeightedGraph& g, std::span<const std::int64_t> cost);

  /// Minimum live edges per fold chunk (default 2048). Pure wall-time
  /// granularity: chunk boundaries cannot change the selected tree (see the
  /// class comment), so this is safe to lower — tests do, to force
  /// multi-chunk folds on small graphs.
  void set_min_chunk_edges(std::size_t edges) { min_chunk_edges_ = std::max<std::size_t>(edges, 1); }

 private:
  struct Cand {
    std::int64_t cost = 0;
    EdgeId edge = kNoEdge;
  };
  struct ChunkOut {
    std::vector<std::pair<NodeId, Cand>> candidates;  // per-root minima, compacted
    std::vector<EdgeId> survivors;                    // still-cut edges, scan order
  };

  void scan_chunk(const WeightedGraph& g, std::span<const std::int64_t> cost, std::size_t chunk,
                  std::size_t begin, std::size_t end);
  [[nodiscard]] NodeId find(NodeId v);

  // Phase state, reused across runs (sized on first use, never shrunk).
  std::vector<NodeId> comp_;     // node -> component representative
  std::vector<NodeId> parent_;   // DSU
  std::vector<NodeId> size_;     // DSU
  std::vector<EdgeId> live_;     // edges possibly still crossing components
  std::vector<EdgeId> tree_;     // selected edges; sorted by id before return
  std::vector<ChunkOut> chunks_; // disjoint per-task output slots
  // Merge scratch: epoch-tagged per-root best so phases skip O(n) clears.
  std::vector<Cand> best_;
  std::vector<std::uint32_t> best_tag_;
  std::vector<NodeId> touched_;
  std::uint32_t epoch_ = 0;
  std::size_t min_chunk_edges_ = 2048;
};

}  // namespace umc
