#pragma once

// The round-execution engine behind minoragg::Network.
//
// Executing one Definition 9 round decomposes into a *pattern* part that
// depends only on the contraction bitvector (supernode partition, surviving
// minor-edge list, fold schedule) and a *value* part (consensus and
// aggregation folds). Algorithms in this repo replay the same contraction
// pattern for thousands of consecutive rounds (fixed spanning tree, HLD
// chains, Theorem 14 schedules), so the engine:
//
//   * caches the pattern part as a RoundPlan, keyed by a hash of the packed
//     contract bits and verified by exact comparison, in a small LRU cache —
//     repeated rounds skip the per-round DSU and minor-edge scan entirely;
//   * reuses engine-owned scratch arenas for all intermediate fold buffers,
//     so a warm round performs no allocation beyond its returned result;
//   * folds chunk-parallel yet bit-identically to the sequential reference:
//     the plan groups nodes and edge incidences per supernode, each
//     supernode's fold runs sequentially in id order, and supernodes are
//     chunked across threads — outputs are disjoint per supernode, so the
//     result is independent of thread count (Def. 7 determinism contract).
//
// Thread width comes from the UMC_THREADS knob (ThreadPool) and can be
// overridden per engine; small rounds run inline. Edge callbacks are
// evaluated exactly once per surviving minor edge but possibly concurrently
// and out of id order — they must be pure functions of their arguments.
//
// Ledger accounting lives in Network; the engine never charges rounds.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <typeindex>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sketch/aggregators.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace umc::minoragg {

/// Outcome of one round, indexed by node id of the host graph.
template <typename Y, typename Z>
struct RoundResult {
  /// y_{s(v)}: the consensus aggregate of v's supernode.
  std::vector<Y> consensus;
  /// ⊗-aggregate of incident E' edge values of v's supernode.
  std::vector<Z> aggregate;
  /// Supernode id of v (smallest node id contained in the supernode).
  std::vector<NodeId> supernode;
};

/// Everything about a round that depends only on the contraction pattern.
/// Built once per pattern (one DSU pass) and replayed from cache.
struct RoundPlan {
  /// Packed contract bits — the exact cache key.
  std::vector<std::uint64_t> pattern;
  std::uint64_t hash = 0;

  /// Supernode id per node (smallest contained node id).
  std::vector<NodeId> supernode;
  /// Dense group index per node; groups are numbered by ascending
  /// representative id (== first-seen order scanning nodes 0..n-1).
  std::vector<std::int32_t> group_of;
  std::int32_t num_groups = 0;

  /// Nodes grouped by supernode (CSR): group g's members are
  /// node_members[node_begin[g] .. node_begin[g+1]) in ascending id order.
  std::vector<std::int32_t> node_begin;
  std::vector<NodeId> node_members;

  /// A surviving minor edge with everything the hot loop needs pre-resolved.
  struct MinorEdge {
    EdgeId e;
    NodeId u, v;
    std::int32_t gu, gv;  // dense groups of u / v
  };
  /// Surviving (non-self-loop) minor edges in ascending edge-id order.
  std::vector<MinorEdge> edges;

  /// Aggregation schedule (CSR per group): entry k in
  /// [inc_begin[g], inc_begin[g+1]) is (minor-edge index << 1 | side), side
  /// 0 = u, 1 = v, listed in ascending edge order — exactly the merge order
  /// of the sequential reference fold.
  std::vector<std::int32_t> inc_begin;
  std::vector<std::uint32_t> inc;

  /// Slot for downstream layers to hang plan-derived state on (the CONGEST
  /// compiler stores a congest::PartwiseCache keyed by group_of here).
  /// Type-erased so this layer carries no dependency on those layers; it
  /// dies with the plan — rebuild or LRU eviction — which is precisely the
  /// invalidation rule such state needs (the cache key IS the plan key).
  /// Mutable: filling it is caching, not a logical mutation of the plan.
  mutable std::shared_ptr<void> congest_cache;
};

/// Typed scratch buffers keyed by (element type, slot). Copying an engine
/// copies configuration, not scratch — the buffers are transient.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) {}
  ScratchArena& operator=(const ScratchArena&) { return *this; }
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  template <typename T>
  std::vector<T>& get(int slot) {
    const Key key{std::type_index(typeid(T)), slot};
    auto it = slots_.find(key);
    if (it == slots_.end()) it = slots_.emplace(key, std::make_unique<Typed<T>>()).first;
    return static_cast<Typed<T>*>(it->second.get())->v;
  }

 private:
  struct Erased {
    virtual ~Erased() = default;
  };
  template <typename T>
  struct Typed final : Erased {
    std::vector<T> v;
  };
  using Key = std::pair<std::type_index, int>;
  std::map<Key, std::unique_ptr<Erased>> slots_;
};

class RoundEngine {
 public:
  /// The caller keeps `g` alive for the engine's lifetime.
  explicit RoundEngine(const WeightedGraph& g, int threads = ThreadPool::configured_threads())
      : g_(&g), threads_(threads < 1 ? 1 : threads) {}

  /// Copies share the graph and thread width but start with a cold cache.
  RoundEngine(const RoundEngine& o) : g_(o.g_), threads_(o.threads_) {}
  RoundEngine& operator=(const RoundEngine& o) {
    g_ = o.g_;
    threads_ = o.threads_;
    cache_.clear();
    hits_ = misses_ = 0;
    return *this;
  }
  RoundEngine(RoundEngine&&) = default;
  RoundEngine& operator=(RoundEngine&&) = default;

  [[nodiscard]] const WeightedGraph& graph() const { return *g_; }

  /// Fold-parallelism width (threads used for large rounds). 1 = inline.
  void set_threads(int t) { threads_ = t < 1 ? 1 : t; }
  [[nodiscard]] int threads() const { return threads_; }

  /// The cached plan for a contraction pattern; builds (and caches) it on
  /// miss. The reference stays valid until a later plan() call inserts a
  /// new pattern into a full cache, which evicts (and invalidates) only the
  /// least-recently-used entry; cache storage itself never reallocates.
  const RoundPlan& plan(const std::vector<bool>& contract);

  [[nodiscard]] std::size_t plan_cache_hits() const { return hits_; }
  [[nodiscard]] std::size_t plan_cache_misses() const { return misses_; }
  [[nodiscard]] std::size_t plan_cache_size() const { return cache_.size(); }

  /// Executes the value part of one round against a plan. Bit-identical to
  /// the sequential reference fold at any thread width. `edge_values` is
  /// invoked exactly once per surviving minor edge, possibly concurrently.
  template <Aggregator CAgg, Aggregator XAgg, typename EdgeFn>
  RoundResult<typename CAgg::value_type, typename XAgg::value_type> execute(
      const RoundPlan& plan, std::span<const typename CAgg::value_type> node_input,
      EdgeFn&& edge_values);

 private:
  struct CacheEntry {
    std::uint64_t hash = 0;
    RoundPlan plan;
    std::uint64_t stamp = 0;  // LRU clock
  };

  static constexpr std::size_t kPlanCacheCapacity = 16;
  /// Below this much per-round work (nodes + minor edges) rounds run inline
  /// even when threads() > 1 — fan-out costs more than it saves.
  static constexpr std::size_t kParallelCutoff = 1 << 13;

  [[nodiscard]] int effective_width(std::size_t work) const {
    return (threads_ > 1 && work >= kParallelCutoff) ? threads_ : 1;
  }

  /// Splits groups into ~width chunks of balanced total CSR size and runs
  /// body(group_lo, group_hi) for each, in parallel when width > 1.
  template <typename Body>
  void for_group_chunks(std::span<const std::int32_t> csr_begin, std::int32_t num_groups,
                        int width, Body&& body) {
    if (width <= 1 || num_groups <= 1) {
      body(0, num_groups);
      return;
    }
    const std::int32_t total = csr_begin[static_cast<std::size_t>(num_groups)];
    std::vector<std::int32_t> cuts;
    cuts.push_back(0);
    for (int c = 1; c < width; ++c) {
      const std::int32_t target =
          static_cast<std::int32_t>(static_cast<std::int64_t>(total) * c / width);
      const auto it = std::lower_bound(csr_begin.begin() + cuts.back(),
                                       csr_begin.begin() + num_groups, target);
      cuts.push_back(static_cast<std::int32_t>(it - csr_begin.begin()));
    }
    cuts.push_back(num_groups);
    ThreadPool::global().run(
        static_cast<std::size_t>(width), width, [&](std::size_t c) {
          // Per-chunk worker-thread span: where the fold wall time goes.
          UMC_OBS_SPAN_VAR_L(obs_chunk, "engine/chunk", "engine",
                             static_cast<std::int64_t>(c));
          obs_chunk.arg("groups", cuts[c + 1] - cuts[c]);
          body(cuts[c], cuts[c + 1]);
        });
  }

  /// Splits [0, count) into ~width equal ranges and runs body(lo, hi).
  template <typename Body>
  void for_ranges(std::size_t count, int width, Body&& body) {
    if (width <= 1 || count <= 1) {
      body(std::size_t{0}, count);
      return;
    }
    const std::size_t w = static_cast<std::size_t>(width);
    ThreadPool::global().run(w, width, [&](std::size_t c) {
      body(count * c / w, count * (c + 1) / w);
    });
  }

  const WeightedGraph* g_;
  int threads_;
  std::vector<CacheEntry> cache_;
  std::uint64_t clock_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  ScratchArena scratch_;
};

// ---- template implementation ----------------------------------------------

template <Aggregator CAgg, Aggregator XAgg, typename EdgeFn>
RoundResult<typename CAgg::value_type, typename XAgg::value_type> RoundEngine::execute(
    const RoundPlan& plan, std::span<const typename CAgg::value_type> node_input,
    EdgeFn&& edge_values) {
  using Y = typename CAgg::value_type;
  using Z = typename XAgg::value_type;
  const std::size_t n = plan.supernode.size();
  UMC_ASSERT(node_input.size() == n);
  const std::size_t groups = static_cast<std::size_t>(plan.num_groups);
  const int width = effective_width(n + plan.edges.size());
  UMC_OBS_SPAN_VAR(obs_exec, "engine/execute", "engine");
  obs_exec.arg("work", static_cast<std::int64_t>(n + plan.edges.size()));
  obs_exec.arg("width", width);
  if (width > 1) {
    // The pool executes `width` chunk jobs for this round; `width - 1`
    // of them queue behind the workers — the pool's queue depth.
    static obs::Gauge& queue_depth = obs::MetricsRegistry::global().gauge(
        "umc_pool_queue_depth", {}, "Chunk jobs queued per parallel fold (width - 1).");
    queue_depth.set(width - 1);
    static obs::Counter& parallel_folds = obs::MetricsRegistry::global().counter(
        "umc_engine_parallel_folds_total", {}, "Rounds folded chunk-parallel.");
    parallel_folds.inc();
  }

  RoundResult<Y, Z> out;
  out.supernode = plan.supernode;

  // Consensus: fold x_v per supernode in member (= node-id) order, then
  // scatter y back to members. Each group writes only its own y slot, so
  // chunking over groups cannot race and cannot reorder any fold.
  std::vector<Y>& y = scratch_.get<Y>(0);
  y.resize(groups);
  if (width <= 1) {
    // Sequential fast path: a single ascending-id sweep visits each group's
    // members in exactly the CSR order with perfectly streaming access.
    std::fill(y.begin(), y.end(), CAgg::identity());
    for (std::size_t v = 0; v < n; ++v) {
      Y& acc = y[static_cast<std::size_t>(plan.group_of[v])];
      acc = CAgg::merge(std::move(acc), node_input[v]);
    }
  } else {
    for_group_chunks(plan.node_begin, plan.num_groups, width,
                     [&](std::int32_t g_lo, std::int32_t g_hi) {
                       for (std::int32_t g = g_lo; g < g_hi; ++g) {
                         Y acc = CAgg::identity();
                         for (std::int32_t k = plan.node_begin[static_cast<std::size_t>(g)];
                              k < plan.node_begin[static_cast<std::size_t>(g) + 1]; ++k)
                           acc = CAgg::merge(
                               std::move(acc),
                               node_input[static_cast<std::size_t>(
                                   plan.node_members[static_cast<std::size_t>(k)])]);
                         y[static_cast<std::size_t>(g)] = std::move(acc);
                       }
                     });
  }
  // Aggregation in the reference order: per group, incident z-values merge
  // in ascending edge order (u side before v side of one edge). The edge
  // callback receives the supernode consensus values straight from the
  // compact per-group table — y[gu] is by definition the consensus value at
  // every node of u's supernode.
  std::vector<Z>& z = scratch_.get<Z>(1);
  z.resize(groups);
  if (width <= 1) {
    // Sequential fast path: one ascending sweep of the surviving edges IS
    // the per-group reference order, so fold straight into the group
    // accumulators — no intermediate flat table.
    std::fill(z.begin(), z.end(), XAgg::identity());
    for (const RoundPlan::MinorEdge& me : plan.edges) {
      auto [zu, zv] = edge_values(me.e, y[static_cast<std::size_t>(me.gu)],
                                  y[static_cast<std::size_t>(me.gv)]);
      Z& au = z[static_cast<std::size_t>(me.gu)];
      au = XAgg::merge(std::move(au), std::move(zu));
      Z& av = z[static_cast<std::size_t>(me.gv)];
      av = XAgg::merge(std::move(av), std::move(zv));
    }
  } else {
    // Parallel path: evaluate every surviving minor edge once into a flat
    // (z_u, z_v) table, then fold per supernode following the plan's
    // incidence schedule — the same ascending edge order per group.
    // Slot 2: must not alias y's slot 0 — y stays live through the final
    // scatter and Y may equal Z.
    std::vector<Z>& zp = scratch_.get<Z>(2);
    zp.resize(plan.edges.size() * 2);
    for_ranges(plan.edges.size(), width, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const RoundPlan::MinorEdge& me = plan.edges[i];
        auto [zu, zv] = edge_values(me.e, y[static_cast<std::size_t>(me.gu)],
                                    y[static_cast<std::size_t>(me.gv)]);
        zp[2 * i] = std::move(zu);
        zp[2 * i + 1] = std::move(zv);
      }
    });
    for_group_chunks(plan.inc_begin, plan.num_groups, width,
                     [&](std::int32_t g_lo, std::int32_t g_hi) {
                       for (std::int32_t g = g_lo; g < g_hi; ++g) {
                         Z acc = XAgg::identity();
                         for (std::int32_t k = plan.inc_begin[static_cast<std::size_t>(g)];
                              k < plan.inc_begin[static_cast<std::size_t>(g) + 1]; ++k)
                           acc = XAgg::merge(std::move(acc),
                                             zp[plan.inc[static_cast<std::size_t>(k)]]);
                         z[static_cast<std::size_t>(g)] = std::move(acc);
                       }
                     });
  }
  // One fused scatter: every node copies its group's consensus and
  // aggregation results.
  out.consensus.resize(n);
  out.aggregate.resize(n);
  for_ranges(n, width, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      const std::size_t g = static_cast<std::size_t>(plan.group_of[v]);
      out.consensus[v] = y[g];
      out.aggregate[v] = z[g];
    }
  });
  return out;
}

}  // namespace umc::minoragg
