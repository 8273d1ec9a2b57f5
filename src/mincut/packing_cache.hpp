#pragma once

// PackingCache — reusable tree packings keyed by (graph fingerprint, rng
// state, packing configuration).
//
// The packing producer is deterministic given its inputs: the graph, the
// generator state at entry, and the PackingConfig. verify_mincut_result
// exploits exactly that determinism for its guard battery — it replays the
// packing from the same seed and compares — which previously meant paying
// the full ~2·λ·log m MST iterations a second time. The cache stores, per
// key, everything a replay observes: the emitted trees (in order), the
// packing metadata, the ledger charges, and the generator state at exit.
// A hit streams the stored trees through the caller's sink, absorbs the
// stored charges, and fast-forwards the caller's Rng — bit-identical to a
// recompute for every downstream consumer, at O(output) cost.
//
// The same mechanism is the warm-start foundation the ROADMAP's streaming
// and daemon items call for: a resident session re-solving an unchanged
// graph (or replaying a tenant request) hits instead of repacking.
//
// Keys fingerprint the full edge list (order, endpoints, weights), so any
// topology or weight mutation misses naturally — that IS the invalidation
// rule. Entries are LRU-evicted beyond a small capacity; lookups return
// shared_ptr snapshots so eviction never invalidates a reader.
//
// Delta-aware mode (src/stream): incremental lineages key warm-started
// packings by the BASE fingerprint (the graph at the last full pack) plus a
// `delta_fp` folding the update journal applied since — so a mutated graph
// does not cold-miss, yet any divergence in the update history still misses
// naturally. Plain tree_packing keys keep `delta_fp == 0`; the two keyspaces
// share the LRU but can never collide (a stream key always carries a
// non-base fingerprint role and its own delta). Stream entries additionally
// carry `tree_values` (the per-tree 2-respecting minima at store time) so an
// identical lineage replays trees AND their solved values, skipping every
// Borůvka iteration and tree solve; they leave `charges` empty and
// `rng_after` unset (warm tiers charge their own replay and draw no
// randomness).
//
// Thread safety: all operations take the cache mutex; entries are immutable
// after insert.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"

namespace umc::mincut {

/// Cache key. `config_fp` folds every PackingConfig field the producer
/// branches on (built by tree_packing.cpp, which owns the config layout).
struct PackingKey {
  std::uint64_t graph_fp = 0;
  std::uint64_t config_fp = 0;
  Rng::State rng_state{};
  /// Delta-aware mode: fingerprint of the update journal applied since the
  /// base pack (0 = plain whole-graph key). See the header comment.
  std::uint64_t delta_fp = 0;

  auto operator<=>(const PackingKey&) const = default;
};

/// Everything a tree_packing call produces, replayable on a hit.
struct PackingEntry {
  std::vector<std::vector<EdgeId>> trees;  // original-graph edge ids, emit order
  Weight lambda_seed = 0;
  bool sampled = false;
  minoragg::Ledger charges;  // rounds + counters the producer charged
  Rng::State rng_after{};    // generator state when the producer returned
  /// Delta-aware entries only: per-tree 2-respecting minima at store time,
  /// index-aligned with `trees` (empty for plain packing entries).
  std::vector<Weight> tree_values;
};

class PackingCache {
 public:
  /// The process-wide cache. Thread-safe.
  static PackingCache& global();

  /// Returns the entry for `key`, refreshing its LRU position, or null.
  /// Counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const PackingEntry> lookup(const PackingKey& key);

  /// Inserts (or replaces) the entry for `key`, evicting the least recently
  /// used entry beyond capacity.
  void insert(const PackingKey& key, std::shared_ptr<const PackingEntry> entry);

  /// Drops every entry (hit/miss statistics survive).
  void clear();

  /// Maximum resident entries (default 4); setting a smaller capacity
  /// evicts immediately.
  void set_capacity(std::size_t cap);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;

 private:
  using LruList = std::list<std::pair<PackingKey, std::shared_ptr<const PackingEntry>>>;

  void evict_locked();

  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::map<PackingKey, LruList::iterator> index_;
  std::size_t capacity_ = 4;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Order-sensitive fingerprint of (n, m, every edge's endpoints and weight).
/// Mutating any edge — including via set_weight — changes it, which is what
/// invalidates cached packings for mutated graphs.
[[nodiscard]] std::uint64_t graph_fingerprint(const WeightedGraph& g);

}  // namespace umc::mincut
