#include "congest/partwise.hpp"

#include <algorithm>
#include <limits>

#include "graph/minors.hpp"
#include "graph/properties.hpp"
#include "obs/metrics.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::congest {

namespace {

struct PartwiseMetrics {
  obs::Counter& hits = obs::MetricsRegistry::global().counter(
      "umc_partwise_cache_hits_total", {},
      "Part-wise aggregations served from a built PartwiseCache (per-part "
      "BFS skipped).");
  obs::Counter& misses = obs::MetricsRegistry::global().counter(
      "umc_partwise_cache_misses_total", {},
      "Part-wise aggregations that had to build partition state (cold cache "
      "or none supplied).");
};

PartwiseMetrics& partwise_metrics() {
  static PartwiseMetrics m;
  return m;
}

/// Eccentricity of `root` inside the sub-network induced by one part.
/// `dist` is n-sized scratch that is -1 at every part member on entry and is
/// restored before returning (only visited entries are touched), so one
/// buffer serves every part of the partition — this BFS used to allocate an
/// O(n) vector per part per aggregation, the layer's hottest loop.
int internal_eccentricity(const CsrAdjacency& csr, std::span<const int> part, int pid,
                          NodeId root, std::vector<int>& dist, std::vector<NodeId>& bfs_q) {
  bfs_q.clear();
  dist[static_cast<std::size_t>(root)] = 0;
  bfs_q.push_back(root);
  int ecc = 0;
  for (std::size_t head = 0; head < bfs_q.size(); ++head) {
    const NodeId v = bfs_q[head];
    ecc = std::max(ecc, dist[static_cast<std::size_t>(v)]);
    for (const AdjEntry& a : csr.row(v)) {
      if (part[static_cast<std::size_t>(a.to)] != pid) continue;
      if (dist[static_cast<std::size_t>(a.to)] != -1) continue;
      dist[static_cast<std::size_t>(a.to)] = dist[static_cast<std::size_t>(v)] + 1;
      bfs_q.push_back(a.to);
    }
  }
  for (const NodeId v : bfs_q) dist[static_cast<std::size_t>(v)] = -1;
  return ecc;
}

/// Build the input-independent partition state: member CSR, small/large
/// split, worst small-part eccentricity.
void build_partition_state(const WeightedGraph& g, std::span<const int> part, int k,
                           PartwiseCache& c) {
  const NodeId n = g.n();
  c.num_parts = k;
  c.member_begin.assign(static_cast<std::size_t>(k) + 1, 0);
  for (const int p : part) {
    if (p >= 0) ++c.member_begin[static_cast<std::size_t>(p) + 1];
  }
  for (int p = 0; p < k; ++p)
    c.member_begin[static_cast<std::size_t>(p) + 1] += c.member_begin[static_cast<std::size_t>(p)];
  c.members.resize(static_cast<std::size_t>(c.member_begin[static_cast<std::size_t>(k)]));
  {
    std::vector<std::int64_t> cur(c.member_begin.begin(), c.member_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const int p = part[static_cast<std::size_t>(v)];
      if (p >= 0) c.members[static_cast<std::size_t>(cur[static_cast<std::size_t>(p)]++)] = v;
    }
  }

  // Small/large threshold: 2(ceil(sqrt(n))+1), matching the carve partition's
  // size cap so canonical partitions ride the node-disjoint small-part route.
  const NodeId threshold = 2 * (static_cast<NodeId>(isqrt(static_cast<std::uint64_t>(n))) + 1);

  const CsrAdjacency& csr = g.csr();
  c.large_index.assign(static_cast<std::size_t>(k), -1);
  c.num_large = 0;
  c.small_rounds = 0;
  c.ecc_dist.assign(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> bfs_q;
  for (int p = 0; p < k; ++p) {
    const std::int64_t b = c.member_begin[static_cast<std::size_t>(p)];
    const std::int64_t e = c.member_begin[static_cast<std::size_t>(p) + 1];
    if (b == e) continue;
    if (e - b > threshold) {
      c.large_index[static_cast<std::size_t>(p)] = c.num_large++;
      continue;
    }
    const int ecc = internal_eccentricity(csr, part, p, c.members[static_cast<std::size_t>(b)],
                                          c.ecc_dist, bfs_q);
    c.small_rounds = std::max(c.small_rounds, static_cast<std::int64_t>(2 * ecc + 2));
  }
  c.large_built = false;
  c.built = true;
}

}  // namespace

PartwiseResult partwise_aggregate(CongestNetwork& net, std::span<const int> part,
                                  std::span<const std::int64_t> input, PartwiseOp op,
                                  PartwiseCache* cache) {
  const auto identity = [op]() {
    return op == PartwiseOp::kSum ? 0 : std::numeric_limits<std::int64_t>::max();
  };
  const auto fold = [op](std::int64_t a, std::int64_t b) {
    return op == PartwiseOp::kSum ? a + b : std::min(a, b);
  };
  const WeightedGraph& g = net.graph();
  const NodeId n = g.n();
  UMC_ASSERT(static_cast<NodeId>(part.size()) == n);
  UMC_ASSERT(static_cast<NodeId>(input.size()) == n);
  const std::int64_t start_rounds = net.rounds();

  PartwiseResult out;
  out.value.assign(static_cast<std::size_t>(n), identity());

  int k = 0;
  for (const int p : part) k = std::max(k, p + 1);
  out.num_parts = k;
  if (k == 0) return out;

  PartwiseCache local;
  PartwiseCache& c = cache != nullptr ? *cache : local;
  (c.built ? partwise_metrics().hits : partwise_metrics().misses).inc();
  if (!c.built) {
    build_partition_state(g, part, k, c);
  } else {
    UMC_ASSERT_MSG(c.num_parts == k, "PartwiseCache reused across a different partition");
  }
  const auto part_members = [&c](int p) {
    return std::span<const NodeId>(
        c.members.data() + c.member_begin[static_cast<std::size_t>(p)],
        static_cast<std::size_t>(c.member_begin[static_cast<std::size_t>(p) + 1] -
                                 c.member_begin[static_cast<std::size_t>(p)]));
  };

  // Per-call totals (input- and op-dependent; scratch, no allocation warm).
  c.total.assign(static_cast<std::size_t>(k), identity());
  for (NodeId v = 0; v < n; ++v) {
    const int p = part[static_cast<std::size_t>(v)];
    if (p >= 0)
      c.total[static_cast<std::size_t>(p)] =
          fold(c.total[static_cast<std::size_t>(p)], input[static_cast<std::size_t>(v)]);
  }

  // ---- Small-part phase: node-disjoint internal convergecast+broadcast.
  // Each part aggregates over its own internal BFS tree; since parts are
  // node-disjoint the schedules coexist, so the cost is the worst part's
  // 2*eccentricity + 2 (cached — the schedule itself is simulated host-side).
  for (int p = 0; p < k; ++p) {
    if (c.large_index[static_cast<std::size_t>(p)] >= 0) continue;
    for (const NodeId v : part_members(p))
      out.value[static_cast<std::size_t>(v)] = c.total[static_cast<std::size_t>(p)];
  }
  net.charge_idle(c.small_rounds);
  out.small_phase_rounds = c.small_rounds;
  out.num_large_parts = c.num_large;

  // ---- Large-part phase: pipelined convergecast + broadcast on the global
  // BFS tree, one (part, value) message per edge per round, greedy schedule.
  if (c.num_large > 0) {
    const std::int64_t large_start = net.rounds();
    const std::size_t L = static_cast<std::size_t>(c.num_large);
    const std::size_t nL = static_cast<std::size_t>(n) * L;

    // Topology: the global BFS tree and the per-node demand table. On a
    // fault-free network the flood is deterministic, so a cached tree plus
    // charge_idle(bfs_rounds) is round-for-round identical to rebuilding;
    // with an injector attached the flood must really run (faults may
    // reshape the tree and must see the real traffic), so nothing is reused.
    if (!c.large_built || net.fault_injector() != nullptr) {
      const std::int64_t bfs_start = net.rounds();
      c.bfs = build_bfs_tree(net, 0);
      c.bfs_rounds = net.rounds() - bfs_start;
      // contains[v*L + l]: subtree(v) holds a member of large part l.
      c.contains.assign(nL, 0);
      for (int p = 0; p < k; ++p) {
        const int l = c.large_index[static_cast<std::size_t>(p)];
        if (l < 0) continue;
        for (const NodeId u : part_members(p)) {
          for (NodeId x = u; x != kNoNode; x = c.bfs.parent[static_cast<std::size_t>(x)]) {
            char& flag = c.contains[static_cast<std::size_t>(x) * L + static_cast<std::size_t>(l)];
            if (flag) break;
            flag = 1;
          }
        }
      }
      c.need.assign(nL, 0);
      for (NodeId v = 0; v < n; ++v) {
        for (const NodeId ch : c.bfs.children[static_cast<std::size_t>(v)]) {
          for (std::size_t l = 0; l < L; ++l)
            c.need[static_cast<std::size_t>(v) * L + l] +=
                c.contains[static_cast<std::size_t>(ch) * L + l] ? 1 : 0;
        }
      }
      c.large_built = net.fault_injector() == nullptr;
    } else {
      net.charge_idle(c.bfs_rounds);
    }
    const BfsTree& bfs = c.bfs;
    const auto at = [L](NodeId v, std::size_t l) { return static_cast<std::size_t>(v) * L + l; };

    // Upward convergecast.
    c.have.assign(nL, identity());
    c.got.assign(nL, 0);
    c.sent.assign(nL, 0);
    for (NodeId v = 0; v < n; ++v) {
      const int p = part[static_cast<std::size_t>(v)];
      if (p >= 0 && c.large_index[static_cast<std::size_t>(p)] >= 0) {
        auto& acc = c.have[at(v, static_cast<std::size_t>(c.large_index[static_cast<std::size_t>(p)]))];
        acc = fold(acc, input[static_cast<std::size_t>(v)]);
      }
    }
    int root_done = 0;
    for (std::size_t l = 0; l < L; ++l)
      if (c.got[at(bfs.root, l)] == c.need[at(bfs.root, l)]) ++root_done;
    // Event-driven schedule: pending[v] counts the parts v holds complete
    // and unsent; only those nodes are visited per round. A node sends its
    // lowest ready part — exactly what an all-node ascending sweep would
    // send — so the per-round message sets (and the round count) match the
    // sweep message for message.
    c.pending.assign(static_cast<std::size_t>(n), 0);
    c.in_active.assign(static_cast<std::size_t>(n), 0);
    c.active.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (v == bfs.root) continue;
      for (std::size_t l = 0; l < L; ++l)
        if (c.contains[at(v, l)] && c.need[at(v, l)] == 0) ++c.pending[static_cast<std::size_t>(v)];
      if (c.pending[static_cast<std::size_t>(v)] > 0) {
        c.in_active[static_cast<std::size_t>(v)] = 1;
        c.active.push_back(v);
      }
    }
    while (root_done < c.num_large) {
      c.round_senders.clear();
      std::size_t w = 0;
      for (const NodeId v : c.active) {
        for (std::size_t l = 0; l < L; ++l) {
          if (c.sent[at(v, l)]) continue;
          if (!c.contains[at(v, l)]) continue;
          if (c.got[at(v, l)] != c.need[at(v, l)]) continue;
          net.send(v, bfs.parent_edge[static_cast<std::size_t>(v)],
                   static_cast<std::int64_t>(l), c.have[at(v, l)]);
          c.sent[at(v, l)] = 1;
          --c.pending[static_cast<std::size_t>(v)];
          c.round_senders.push_back(v);
          break;  // one message up per round
        }
        if (c.pending[static_cast<std::size_t>(v)] > 0)
          c.active[w++] = v;
        else
          c.in_active[static_cast<std::size_t>(v)] = 0;
      }
      c.active.resize(w);
      net.end_round();
      // Receive: only this round's senders can have an occupied slot, and
      // each sender's parent reads it directly (fold is commutative, so
      // child order vs the old inbox order is immaterial). A newly
      // completed part makes the parent pending for a later round.
      for (const NodeId ch : c.round_senders) {
        const std::size_t s = net.slot_from(bfs.parent_edge[static_cast<std::size_t>(ch)], ch);
        if (!net.slot_has(s)) continue;
        const NodeId v = bfs.parent[static_cast<std::size_t>(ch)];
        const auto l = static_cast<std::size_t>(net.slot_payload(s));
        c.have[at(v, l)] = fold(c.have[at(v, l)], net.slot_aux(s));
        ++c.got[at(v, l)];
        if (c.got[at(v, l)] != c.need[at(v, l)]) continue;
        if (v == bfs.root) {
          ++root_done;
        } else if (c.contains[at(v, l)] && !c.sent[at(v, l)]) {
          ++c.pending[static_cast<std::size_t>(v)];
          if (!c.in_active[static_cast<std::size_t>(v)]) {
            c.in_active[static_cast<std::size_t>(v)] = 1;
            c.active.push_back(v);
          }
        }
      }
    }

    // Downward pipelined broadcast of the totals.
    c.large_total.assign(L, 0);
    for (std::size_t l = 0; l < L; ++l) c.large_total[l] = c.have[at(bfs.root, l)];
    c.know.assign(nL, 0);
    for (std::size_t l = 0; l < L; ++l) c.know[at(bfs.root, l)] = 1;
    // forwarded[c*L + l]: c's parent already forwarded part l down to c
    // (every node is a child of exactly one parent, so child-node indexing
    // replaces the seed's per-(parent, child-position) nesting).
    c.forwarded.assign(nL, 0);
    std::int64_t remaining = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v == bfs.root) continue;
      for (std::size_t l = 0; l < L; ++l)
        if (c.contains[at(v, l)]) ++remaining;
    }
    // Event-driven mirror of the convergecast: pending[ch] counts parts the
    // parent already knows and ch still needs; only root's children start
    // sendable, and a node's children activate when it learns a part.
    c.pending.assign(static_cast<std::size_t>(n), 0);
    c.in_active.assign(static_cast<std::size_t>(n), 0);
    c.active.clear();
    for (const NodeId ch : bfs.children[static_cast<std::size_t>(bfs.root)]) {
      for (std::size_t l = 0; l < L; ++l)
        if (c.contains[at(ch, l)]) ++c.pending[static_cast<std::size_t>(ch)];
      if (c.pending[static_cast<std::size_t>(ch)] > 0) {
        c.in_active[static_cast<std::size_t>(ch)] = 1;
        c.active.push_back(ch);
      }
    }
    while (remaining > 0) {
      c.round_senders.clear();  // holds the child endpoints (the receivers)
      std::size_t w = 0;
      for (const NodeId ch : c.active) {
        const NodeId v = bfs.parent[static_cast<std::size_t>(ch)];
        for (std::size_t l = 0; l < L; ++l) {
          if (!c.know[at(v, l)]) continue;
          if (c.forwarded[at(ch, l)]) continue;
          if (!c.contains[at(ch, l)]) continue;
          net.send(v, bfs.parent_edge[static_cast<std::size_t>(ch)],
                   static_cast<std::int64_t>(l), c.large_total[l]);
          c.forwarded[at(ch, l)] = 1;
          --c.pending[static_cast<std::size_t>(ch)];
          c.round_senders.push_back(ch);
          break;  // one message per child edge per round
        }
        if (c.pending[static_cast<std::size_t>(ch)] > 0)
          c.active[w++] = ch;
        else
          c.in_active[static_cast<std::size_t>(ch)] = 0;
      }
      c.active.resize(w);
      net.end_round();
      for (const NodeId v : c.round_senders) {
        const std::size_t s = net.slot_from(bfs.parent_edge[static_cast<std::size_t>(v)],
                                            bfs.parent[static_cast<std::size_t>(v)]);
        if (!net.slot_has(s)) continue;
        const auto l = static_cast<std::size_t>(net.slot_payload(s));
        if (c.know[at(v, l)]) continue;
        c.know[at(v, l)] = 1;
        --remaining;
        for (const NodeId ch : bfs.children[static_cast<std::size_t>(v)]) {
          if (!c.contains[at(ch, l)]) continue;
          ++c.pending[static_cast<std::size_t>(ch)];
          if (!c.in_active[static_cast<std::size_t>(ch)]) {
            c.in_active[static_cast<std::size_t>(ch)] = 1;
            c.active.push_back(ch);
          }
        }
      }
    }
    for (int p = 0; p < k; ++p) {
      const int l = c.large_index[static_cast<std::size_t>(p)];
      if (l < 0) continue;
      for (const NodeId v : part_members(p))
        out.value[static_cast<std::size_t>(v)] = c.large_total[static_cast<std::size_t>(l)];
    }
    out.large_phase_rounds = net.rounds() - large_start;
  }

  out.rounds_used = net.rounds() - start_rounds;
  return out;
}

PartwiseResult partwise_aggregate(CongestNetwork& net, std::span<const int> part,
                                  std::span<const std::int64_t> input, PartwiseOp op) {
  return partwise_aggregate(net, part, input, op, nullptr);
}

std::vector<int> sqrt_carve_partition(const WeightedGraph& g, std::uint64_t seed) {
  const NodeId n = g.n();
  Rng rng(seed);
  const auto tree_edges = wilson_random_spanning_tree(g, rng);
  const RootedTree t(g, tree_edges, 0);
  const NodeId target = static_cast<NodeId>(isqrt(static_cast<std::uint64_t>(n))) + 1;

  std::vector<int> part(static_cast<std::size_t>(n), -1);
  // Bottom-up carve: pending cluster per node = itself plus children's
  // still-open clusters. Closing when the accumulated size reaches the
  // target keeps every part connected; child clusters that would push the
  // accumulator past 2x the target are closed on their own, capping part
  // sizes at 2*target (so all parts stay on the small-part route).
  std::vector<std::vector<NodeId>> pending(static_cast<std::size_t>(n));
  int next_part = 0;
  const auto close = [&part, &next_part](std::vector<NodeId>& cluster) {
    for (const NodeId x : cluster) part[static_cast<std::size_t>(x)] = next_part;
    ++next_part;
    cluster.clear();
  };
  const auto order = t.preorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    auto& acc = pending[static_cast<std::size_t>(v)];
    acc.push_back(v);
    for (const NodeId c : t.children(v)) {
      auto& pc = pending[static_cast<std::size_t>(c)];
      if (static_cast<NodeId>(acc.size() + pc.size()) > 2 * target) {
        close(pc);  // connected on its own (contains c)
      } else {
        acc.insert(acc.end(), pc.begin(), pc.end());
        pc.clear();
      }
      pc.shrink_to_fit();
    }
    if (static_cast<NodeId>(acc.size()) >= target || v == t.root()) close(acc);
  }
  return part;
}

}  // namespace umc::congest
