#pragma once

// Batched edge-update ingestion for incremental min-cut (ROADMAP item 1).
//
// A StreamGraph keeps a RESIDENT weighted graph plus a delta journal. Edges
// are addressed by stable SLOT ids that survive every mutation: slot i is
// base edge i at construction, inserts append new slots, deletes tombstone
// a slot without renumbering anything. The solver-facing view is the
// MATERIALIZED WeightedGraph over the alive slots (the core pipeline has no
// notion of dead edges), with slot<->current id maps kept in both
// directions. Reweight-only batches — the mincutd MUTATE fast path — touch
// the materialized graph in place via set_weight (no rebuild, no CSR
// invalidation); structural batches (insert/delete) re-materialize in one
// O(n + m) pass and are validated to keep the graph connected, because a
// disconnected graph has no min cut for the pipeline to certify.
//
// The journal is what makes warm-started packings cacheable: `base_fp()`
// fingerprints the graph at the last `rebase()` (the last full pack) and
// `delta_fp()` folds, order-sensitively, every op applied since. The pair
// is the delta-aware PackingCache key (mincut/packing_cache.hpp) — two
// lineages share warm state iff they share the base AND the exact update
// history.
//
// Batches are transactional: every op is validated against the batch's own
// overlay (so duplicate/interacting ops inside one batch resolve exactly as
// written, in order) and NOTHING is applied when any op is rejected.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/error.hpp"

namespace umc::stream {

enum class UpdateKind {
  kInsert = 0,    // new edge {u, v} with weight w
  kDelete = 1,    // tombstone slot `edge`
  kReweight = 2,  // slot `edge` gets weight w
};

[[nodiscard]] const char* to_string(UpdateKind k);

struct UpdateOp {
  UpdateKind kind = UpdateKind::kReweight;
  EdgeId edge = kNoEdge;  // delete/reweight target (slot id)
  NodeId u = kNoNode;     // insert endpoints
  NodeId v = kNoNode;
  Weight w = 0;  // insert/reweight weight
};

/// One batch of updates, applied atomically and in order.
struct UpdateBatch {
  std::vector<UpdateOp> ops;

  void insert(NodeId u, NodeId v, Weight w) {
    ops.push_back({UpdateKind::kInsert, kNoEdge, u, v, w});
  }
  void erase(EdgeId e) { ops.push_back({UpdateKind::kDelete, e, kNoNode, kNoNode, 0}); }
  void reweight(EdgeId e, Weight w) {
    ops.push_back({UpdateKind::kReweight, e, kNoNode, kNoNode, w});
  }
  [[nodiscard]] bool empty() const { return ops.empty(); }
  [[nodiscard]] std::size_t size() const { return ops.size(); }
};

/// One committed op, reported back with the endpoints and weights it
/// actually changed — what the mass counters, the packing-repair logic,
/// and the tracked-cut re-pricer consume (a cut's value moves by new_w -
/// old_w exactly when {u, v} crosses its bipartition).
struct AppliedOp {
  UpdateKind kind = UpdateKind::kReweight;
  EdgeId slot = kNoEdge;
  NodeId u = kNoNode;  // the slot's endpoints (stable across its lifetime)
  NodeId v = kNoNode;
  Weight old_w = 0;  // weight before (0 for inserts)
  Weight new_w = 0;  // weight after (0 for deletes)
};

struct BatchDelta {
  std::vector<AppliedOp> ops;
  bool structural = false;  // any insert/delete committed
};

class StreamGraph {
 public:
  /// Adopts `base` as both the resident graph and the journal base.
  explicit StreamGraph(const WeightedGraph& base);

  /// Validates and applies `batch` atomically. On error nothing changes.
  /// Rejections: out-of-range or dead slot, non-positive weight, self-edge
  /// insert, endpoint out of range, and any delete set that disconnects
  /// the graph.
  [[nodiscard]] Expected<BatchDelta> apply(const UpdateBatch& batch);

  /// The materialized alive-edge graph (CSR pre-built; solver-ready).
  [[nodiscard]] const WeightedGraph& current() const { return current_; }

  [[nodiscard]] NodeId n() const { return current_.n(); }
  /// Total slots ever allocated (alive + tombstoned).
  [[nodiscard]] EdgeId slots() const { return static_cast<EdgeId>(slots_.size()); }
  [[nodiscard]] bool alive(EdgeId slot) const;
  [[nodiscard]] Weight weight(EdgeId slot) const;

  /// Materialized edge id of an alive slot (kNoEdge when tombstoned).
  [[nodiscard]] EdgeId current_of_slot(EdgeId slot) const;
  /// Slot id of a materialized edge id.
  [[nodiscard]] EdgeId slot_of_current(EdgeId cur) const;

  /// Fingerprint of the materialized graph at the last rebase().
  [[nodiscard]] std::uint64_t base_fp() const { return base_fp_; }
  /// Order-sensitive fold of every op committed since the last rebase()
  /// (0 = at base). Together with base_fp: the delta-aware cache key.
  [[nodiscard]] std::uint64_t delta_fp() const { return delta_fp_; }
  [[nodiscard]] std::int64_t journal_size() const { return journal_size_; }

  /// Re-bases the journal on the current graph (called after a full pack):
  /// base_fp is re-fingerprinted, delta_fp returns to 0.
  void rebase();

 private:
  struct Slot {
    NodeId u = kNoNode;
    NodeId v = kNoNode;
    Weight w = 0;
    bool alive = true;
  };

  void materialize();

  std::vector<Slot> slots_;
  WeightedGraph current_;
  std::vector<EdgeId> current_of_slot_;  // slot -> current (kNoEdge if dead)
  std::vector<EdgeId> slot_of_current_;  // current -> slot
  std::uint64_t base_fp_ = 0;
  std::uint64_t delta_fp_ = 0;
  std::int64_t journal_size_ = 0;
};

}  // namespace umc::stream
