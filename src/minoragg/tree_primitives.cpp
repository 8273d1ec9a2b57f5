#include "minoragg/tree_primitives.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "graph/dsu.hpp"
#include "minoragg/star_merge.hpp"
#include "tree/centroid.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"

namespace umc::minoragg {

void build_chain_layout(const RootedTree& t, const HeavyLightDecomposition& hld,
                        ChainLayout& out) {
  const std::size_t levels = static_cast<std::size_t>(hld.max_hl_depth()) + 1;
  // Pass 1: chains and nodes per level (a chain's nodes share its HL-depth),
  // prefix-summed into each level's first chain and first node slot.
  ScratchLease<std::vector<std::int32_t>> node_cursor_s;
  std::vector<std::int32_t>& node_cursor = *node_cursor_s;
  out.level_begin.assign(levels + 1, 0);
  node_cursor.assign(levels + 1, 0);
  for (NodeId v = 0; v < t.n(); ++v) {
    const std::size_t d = static_cast<std::size_t>(hld.hl_depth(v));
    if (hld.chain_head(v) == v) ++out.level_begin[d + 1];
    ++node_cursor[d + 1];
  }
  for (std::size_t d = 0; d < levels; ++d) {
    out.level_begin[d + 1] += out.level_begin[d];
    node_cursor[d + 1] += node_cursor[d];
  }
  // Pass 2: heads in preorder land at their level's next chain slot, so
  // chains of one level keep preorder and their nodes stay contiguous.
  const std::size_t num_chains = static_cast<std::size_t>(out.level_begin[levels]);
  out.chain_begin.resize(num_chains + 1);
  out.chain_begin[num_chains] = t.n();
  out.nodes.resize(static_cast<std::size_t>(t.n()));
  ScratchLease<std::vector<std::int32_t>> chain_cursor_s;
  std::vector<std::int32_t>& chain_cursor = *chain_cursor_s;
  chain_cursor.assign(out.level_begin.begin(), out.level_begin.end());
  for (const NodeId head : t.preorder()) {
    if (hld.chain_head(head) != head) continue;
    const std::size_t d = static_cast<std::size_t>(hld.hl_depth(head));
    std::int32_t& pos = node_cursor[d];
    out.chain_begin[static_cast<std::size_t>(chain_cursor[d]++)] = pos;
    for (NodeId cur = head; cur != kNoNode; cur = hld.heavy_child(cur))
      out.nodes[static_cast<std::size_t>(pos++)] = cur;
  }
}

std::int64_t hl_subtree_sum_rounds(const RootedTree& t, const HeavyLightDecomposition& hld) {
  ScratchLease<std::vector<std::int64_t>> level_s;
  std::vector<std::int64_t>& level = *level_s;  // per HL-depth: its costliest chain
  level.assign(static_cast<std::size_t>(hld.max_hl_depth()) + 1, 0);
  for (NodeId head = 0; head < t.n(); ++head) {
    if (hld.chain_head(head) != head) continue;
    std::uint64_t len = 0;
    for (NodeId cur = head; cur != kNoNode; cur = hld.heavy_child(cur)) ++len;
    std::int64_t& cost = level[static_cast<std::size_t>(hld.hl_depth(head))];
    cost = std::max<std::int64_t>(cost, 2 + ceil_log2(len));
  }
  std::int64_t rounds = 0;
  for (const std::int64_t cost : level) rounds += cost;
  return rounds;
}

namespace {

/// Rows of one Lemma 47 schedule run, leased once per call.
struct ScheduleRows {
  std::vector<std::int32_t> part;  // per node: its part's index
  std::vector<NodeId> top;         // per part: its top (minimum-depth) node
  std::vector<int> out;            // per part: the part its top's parent lies in, or -1
  std::vector<std::int32_t> next;  // per part: its index after this iteration's merges
  StarMergeResult sm;
  StarMergeScratch merge;
};

}  // namespace

void detail::hl_merge_schedule(std::span<const NodeId> parents, Ledger& ledger) {
  const std::size_t n = parents.size();
  // Lemma 47 merging schedule over the part graph: parts start as
  // singletons; every non-root part marks its parent edge; deterministic
  // star-merging merges >= 1/3 of the parts per iteration. A part's index
  // is the rank of its smallest node, and its top node (the one whose
  // parent edge leaves it) is tracked directly: a joiner hangs below its
  // receiver, so a merged part keeps the receiver's top.
  const std::int64_t lemma46_cost =
      2 * (static_cast<std::int64_t>(ceil_log2(static_cast<std::uint64_t>(n) + 1)) + 2);
  ScratchLease<ScheduleRows> rows_s;
  ScheduleRows& r = *rows_s;
  r.part.resize(n);
  r.top.resize(n);
  std::iota(r.part.begin(), r.part.end(), 0);
  std::iota(r.top.begin(), r.top.end(), NodeId{0});
  std::size_t k = n;
  while (k > 1) {
    r.out.resize(k);
    for (std::size_t p = 0; p < k; ++p) {
      const NodeId up = parents[static_cast<std::size_t>(r.top[p])];
      r.out[p] = up == kNoNode ? -1 : r.part[static_cast<std::size_t>(up)];
    }
    star_merge(std::span<const int>(r.out.data(), k), ledger, r.sm, r.merge);
    // Merged parts keep index order: scanning old parts by index meets a
    // merged part first at its smallest node's old part. Indices only
    // shrink (next[p] <= p), so tops move down in place.
    r.next.assign(k, -1);
    std::int32_t merged = 0;
    for (std::size_t p = 0; p < k; ++p) {
      const std::size_t into = r.sm.is_joiner[p] ? static_cast<std::size_t>(r.out[p]) : p;
      if (r.next[into] < 0) r.next[into] = merged++;
      if (into == p)
        r.top[static_cast<std::size_t>(r.next[p])] = r.top[p];
      else
        r.next[p] = r.next[into];
    }
    for (std::int32_t& x : r.part) x = r.next[static_cast<std::size_t>(x)];
    k = static_cast<std::size_t>(merged);
    // Within-part relabeling: subtree sizes + HL-info via two Lemma 46
    // calls on the merged parts (node-disjoint, so the cost is the max —
    // bounded by the full-tree Lemma 46 cost charged here).
    ledger.charge(lemma46_cost);
    ledger.bump(CounterId::hl_merge_iterations);
  }
}

namespace {

/// What one Lemma 47 schedule charges: its rounds plus its two counters.
struct ScheduleCharge {
  std::int64_t rounds = 0;
  std::int64_t merges = 0;  // "hl_merge_iterations"
  std::int64_t cv = 0;      // "cv_iterations"

  /// Applies the charge as the schedule does: counters appear only when
  /// the schedule bumped them.
  void apply(Ledger& ledger) const {
    ledger.charge(rounds);
    if (merges != 0) ledger.bump(CounterId::hl_merge_iterations, merges);
    if (cv != 0) ledger.bump(CounterId::cv_iterations, cv);
  }
};

/// Runs the schedule of the tree `parents` onto a fresh ledger and returns
/// what it charged.
ScheduleCharge run_schedule(std::span<const NodeId> parents) {
  Ledger fresh;
  detail::hl_merge_schedule(parents, fresh);
  const ScheduleCharge charge{fresh.rounds(), fresh.counter(CounterId::hl_merge_iterations),
                              fresh.counter(CounterId::cv_iterations)};
  UMC_ASSERT_MSG(fresh.num_counters() ==
                     static_cast<std::size_t>((charge.merges != 0) + (charge.cv != 0)),
                 "the replayed charge covers every counter the schedule bumps");
  return charge;
}

/// Per-thread table from a tree's parent array to its schedule's charge.
/// Keys are stored in full and compared element-wise; the hash picks the
/// probe slot and rejects most mismatches early. Open addressing over
/// twice as many slots as entries; bounded by a constant number of entries
/// and stored parent ids, and cleared when either fills.
class ScheduleTable {
 public:
  static constexpr std::size_t kMaxEntries = detail::kHlScheduleEntries;
  static constexpr std::size_t kMaxKeyIds = detail::kHlScheduleKeyIds;

  [[nodiscard]] const ScheduleCharge* find(std::span<const NodeId> key,
                                           std::uint64_t hash) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t s = hash & kSlotMask;; s = (s + 1) & kSlotMask) {
      const std::int32_t i = slots_[s];
      if (i < 0) return nullptr;
      const Entry& e = entries_[static_cast<std::size_t>(i)];
      if (e.hash == hash && e.size == key.size() &&
          std::equal(key.begin(), key.end(), keys_.begin() + static_cast<std::ptrdiff_t>(e.begin)))
        return &e.charge;
    }
  }

  void insert(std::span<const NodeId> key, std::uint64_t hash, const ScheduleCharge& charge) {
    if (key.size() > kMaxKeyIds) return;  // never stored
    if (slots_.empty()) {  // first use: size the rows once, at their bounds
      entries_.reserve(kMaxEntries);
      keys_.reserve(kMaxKeyIds);
      slots_.assign(kSlotMask + 1, -1);
    } else if (entries_.size() == kMaxEntries || keys_.size() + key.size() > kMaxKeyIds) {
      entries_.clear();
      keys_.clear();
      std::fill(slots_.begin(), slots_.end(), -1);
    }
    std::size_t s = hash & kSlotMask;
    while (slots_[s] >= 0) s = (s + 1) & kSlotMask;
    slots_[s] = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(Entry{hash, keys_.size(), key.size(), charge});
    keys_.insert(keys_.end(), key.begin(), key.end());
  }

 private:
  static constexpr std::size_t kSlotMask = 2 * kMaxEntries - 1;  // load <= 1/2

  struct Entry {
    std::uint64_t hash;
    std::size_t begin, size;  // key = keys_[begin, begin + size)
    ScheduleCharge charge;
  };
  std::vector<Entry> entries_;
  std::vector<NodeId> keys_;
  std::vector<std::int32_t> slots_;  // entry index, or -1
};

std::uint64_t hash_parents(std::span<const NodeId> parents) {
  std::uint64_t h = mix64(parents.size());
  for (const NodeId p : parents) h = mix64(h ^ static_cast<std::uint32_t>(p));
  return h;
}

}  // namespace

void hl_schedule_charge(std::span<const NodeId> parents, Ledger& ledger) {
  thread_local ScheduleTable table;
  const std::uint64_t hash = hash_parents(parents);
  if (const ScheduleCharge* hit = table.find(parents, hash)) {
    hit->apply(ledger);
    return;
  }
  const ScheduleCharge charge = run_schedule(parents);
  table.insert(parents, hash, charge);
  charge.apply(ledger);
}

void hl_path_pair_schedule_charge(std::size_t p, std::size_t q, Ledger& ledger) {
  UMC_ASSERT(p >= 1 && q >= 1);
  // The canonical parent array: root 0, the first leg 1..p, the second
  // p+1..p+q, each leg top to bottom.
  const auto parents_into = [p, q](std::vector<NodeId>& parents) {
    parents.resize(1 + p + q);
    std::iota(parents.begin(), parents.end(), NodeId{-1});
    parents[p + 1] = 0;
  };
  constexpr std::size_t kSide = detail::kHlPathPairSide;
  if (p > kSide || q > kSide) {
    ScratchLease<std::vector<NodeId>> parents;
    parents_into(*parents);
    hl_schedule_charge(*parents, ledger);
    return;
  }
  // Per-thread (p, q) table, row p - 1 holding every q; rows are added as
  // longer first legs show up, so a thread touches only the rows it uses.
  // A two-leg spider always merges, so rounds == 0 marks a slot whose
  // schedule has not run on this thread yet.
  struct PairCharge {
    std::int32_t rounds = 0, merges = 0, cv = 0;
  };
  thread_local std::vector<PairCharge> table;
  if (table.size() < p * kSide) table.resize(p * kSide);
  PairCharge& slot = table[(p - 1) * kSide + (q - 1)];
  if (slot.rounds == 0) {
    ScratchLease<std::vector<NodeId>> parents;
    parents_into(*parents);
    const ScheduleCharge charge = run_schedule(*parents);
    UMC_ASSERT(charge.rounds > 0 && charge.rounds <= INT32_MAX);
    slot = PairCharge{static_cast<std::int32_t>(charge.rounds),
                      static_cast<std::int32_t>(charge.merges),
                      static_cast<std::int32_t>(charge.cv)};
  }
  ScheduleCharge{slot.rounds, slot.merges, slot.cv}.apply(ledger);
}

void hl_construct(const RootedTree& t, Ledger& ledger, HeavyLightDecomposition& out) {
  hl_schedule_charge(t.parents(), ledger);
  out.rebuild(t);
}

HeavyLightDecomposition hl_construct(const RootedTree& t, Ledger& ledger) {
  HeavyLightDecomposition out;
  hl_construct(t, ledger, out);
  return out;
}

NodeId find_centroid_ma(const RootedTree& t, const HeavyLightDecomposition& hld,
                        Ledger& ledger) {
  // Lemma 42: subtree sizes via a subtree sum; each node then learns the
  // largest child subtree in one aggregation round, and a final
  // leader-election round picks the minimum-id centroid.
  const std::vector<std::int64_t> ones(static_cast<std::size_t>(t.n()), 1);
  const std::vector<std::int64_t> sizes =
      hl_subtree_sums<SumAgg>(t, hld, ones, ledger);
  ledger.charge(2);
  NodeId best = kNoNode;
  for (NodeId v = 0; v < t.n(); ++v) {
    std::int64_t largest = t.n() - sizes[static_cast<std::size_t>(v)];
    for (const NodeId c : t.children(v))
      largest = std::max(largest, sizes[static_cast<std::size_t>(c)]);
    if (2 * largest <= t.n()) {
      if (best == kNoNode || v < best) best = v;
    }
  }
  UMC_ASSERT_MSG(best != kNoNode, "every tree has a centroid (Fact 41)");
  UMC_ASSERT(largest_component_after_removal(t, best) <= t.n() / 2);
  return best;
}

RootedTree orient_tree(const WeightedGraph& g, std::span<const EdgeId> tree_edges, NodeId root,
                       Ledger& ledger) {
  const NodeId n = g.n();
  UMC_ASSERT(root >= 0 && root < n);
  // Adjacency restricted to tree edges, for the part graph's edge marking.
  // Leased: the outer vector only grows, inner vectors keep their capacity
  // across calls (only the first n entries are cleared and used).
  ScratchLease<std::vector<std::vector<std::pair<NodeId, EdgeId>>>> adj_s;
  std::vector<std::vector<std::pair<NodeId, EdgeId>>>& adj = *adj_s;
  if (adj.size() < static_cast<std::size_t>(n)) adj.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) adj[static_cast<std::size_t>(v)].clear();
  for (const EdgeId e : tree_edges) {
    adj[static_cast<std::size_t>(g.edge(e).u)].emplace_back(g.edge(e).v, e);
    adj[static_cast<std::size_t>(g.edge(e).v)].emplace_back(g.edge(e).u, e);
  }

  Dsu parts(n);
  const std::int64_t fix_cost =
      2 * (static_cast<std::int64_t>(ceil_log2(static_cast<std::uint64_t>(n) + 1)) + 2);
  // Merge-loop scratch, leased once per call: assign() recycles capacity.
  ScratchLease<std::vector<NodeId>> rep_of_s, part_rep_s, via_s;
  ScratchLease<std::vector<int>> out_s;
  ScratchLease<StarMergeResult> sm_s;
  ScratchLease<StarMergeScratch> merge_s;
  const StarMergeResult& sm = *sm_s;
  std::vector<NodeId>& rep_of = *rep_of_s;
  std::vector<NodeId>& part_rep = *part_rep_s;
  std::vector<NodeId>& via = *via_s;
  std::vector<int>& out = *out_s;
  while (parts.num_components() > 1) {
    // Dense part ids.
    rep_of.assign(static_cast<std::size_t>(n), kNoNode);
    part_rep.clear();
    for (NodeId v = 0; v < n; ++v) {
      const NodeId r = parts.find(v);
      if (rep_of[static_cast<std::size_t>(r)] == kNoNode) {
        rep_of[static_cast<std::size_t>(r)] = static_cast<NodeId>(part_rep.size());
        part_rep.push_back(r);
      }
    }
    const std::size_t k = part_rep.size();
    // Each non-root part marks an ARBITRARY adjacent outgoing tree edge
    // (the smallest-id one — deterministic); the root part marks none.
    // Mutual marks create 2-cycles in the parts graph, which is fine.
    out.assign(k, -1);
    via.assign(k, kNoNode);  // the neighbor node across the mark
    const NodeId root_part = rep_of[static_cast<std::size_t>(parts.find(root))];
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t p =
          static_cast<std::size_t>(rep_of[static_cast<std::size_t>(parts.find(v))]);
      if (static_cast<NodeId>(p) == root_part) continue;
      for (const auto& [to, e] : adj[static_cast<std::size_t>(v)]) {
        if (parts.same(v, to)) continue;
        const int target = rep_of[static_cast<std::size_t>(parts.find(to))];
        if (out[p] == -1 || via[p] > to) {
          out[p] = target;
          via[p] = to;
        }
      }
    }
    star_merge(out, ledger, *sm_s, *merge_s);
    // A spanning tree gives every non-root part an outgoing edge, so
    // Lemma 44 guarantees a joiner; none means the edges do not span g.
    UMC_ASSERT_MSG(sm.num_joiners > 0, "orient_tree: tree edges do not span the graph");
    for (std::size_t p = 0; p < k; ++p)
      if (sm.is_joiner[p]) parts.unite(part_rep[p], via[p]);
    // Orientation fix within merged parts: reverse the root-to-attachment
    // path (one HL construction + ancestor-sum pass, proof of Theorem 48).
    ledger.charge(fix_cost);
    ledger.bump(CounterId::orient_merge_iterations);
  }
  return RootedTree(g, tree_edges, root);
}

}  // namespace umc::minoragg
