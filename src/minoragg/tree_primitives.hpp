#pragma once

// Deterministic tree primitives of Appendix A / Lemma 16:
//   * heavy-light subtree and ancestor sums (Lemma 46),
//   * deterministic heavy-light construction via star-merging (Lemma 47 /
//     Theorem 48),
//   * centroid finding (Lemma 42).
//
// Subtree/ancestor sums are implemented literally: HL-chains of equal
// HL-depth are processed deepest-first; within one depth all chains are
// node-disjoint and their Lemma 45 path sums run simultaneously
// (Corollary 11 — the ledger takes the max across chains).
//
// The HL construction runs the real Lemma 47 merging schedule (part graph,
// deterministic star-merging with real Cole-Vishkin rounds, joiner→receiver
// merges) and charges each iteration's within-part relabeling at the
// Lemma 46 cost; the labels themselves equal the reference construction's
// (the lemma's invariant pins them up to heavy-tie-breaking, which both
// sides break identically).
//
// Wall-clock: the model already says chains of one HL-depth are
// node-disjoint and run simultaneously, so the host executes them on the
// shared thread pool — each chain writes only its own nodes' slots and its
// own ledger, and per-chain ledgers merge in chain order, keeping both
// outputs and round accounting bit-identical to sequential execution.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "minoragg/ledger.hpp"
#include "minoragg/path_sums.hpp"
#include "sketch/aggregators.hpp"
#include "tree/hld.hpp"
#include "tree/rooted_tree.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::minoragg {

namespace detail {
/// Host-parallelism width for one level of node-disjoint chains: spread
/// chains over UMC_THREADS unless the level is too small to be worth the
/// fan-out.
inline int chain_level_width(std::size_t num_chains, std::size_t level_nodes) {
  if (num_chains < 2 || level_nodes < (1u << 13)) return 1;
  const std::size_t cap = static_cast<std::size_t>(ThreadPool::configured_threads());
  return static_cast<int>(num_chains < cap ? num_chains : cap);
}
}  // namespace detail

/// The HL-chains (maximal heavy paths) of the decomposition in one flat
/// layout, grouped by HL-depth. Level d holds chains
/// [level_begin[d], level_begin[d+1]), in preorder of their heads; chain c
/// lists its nodes top-to-bottom as nodes[chain_begin[c] ..
/// chain_begin[c+1]). Every node lies on exactly one chain. Bookkeeping
/// only; callers lease one (ScratchLease<ChainLayout>) and rebuild it in
/// place, so steady-state builds do not allocate.
struct ChainLayout {
  std::vector<std::int32_t> level_begin;  // size levels() + 1
  std::vector<std::int32_t> chain_begin;  // size (number of chains) + 1
  std::vector<NodeId> nodes;              // size n

  [[nodiscard]] int levels() const { return static_cast<int>(level_begin.size()) - 1; }
  [[nodiscard]] std::size_t first_chain(int d) const {
    return static_cast<std::size_t>(level_begin[static_cast<std::size_t>(d)]);
  }
  [[nodiscard]] std::size_t end_chain(int d) const {
    return static_cast<std::size_t>(level_begin[static_cast<std::size_t>(d) + 1]);
  }
  [[nodiscard]] std::span<const NodeId> chain(std::size_t c) const {
    return {nodes.data() + chain_begin[c], nodes.data() + chain_begin[c + 1]};
  }
  /// Total node count of level d's chains.
  [[nodiscard]] std::size_t level_nodes(int d) const {
    return static_cast<std::size_t>(chain_begin[end_chain(d)] - chain_begin[first_chain(d)]);
  }
};

/// Rebuilds `out` as the chain layout of (t, hld).
void build_chain_layout(const RootedTree& t, const HeavyLightDecomposition& hld,
                        ChainLayout& out);

namespace detail {
/// Runs chain_fn(c, chain_ledger, row) for every chain c of level d —
/// chains of one level are node-disjoint and run simultaneously (Cor. 11),
/// so the level costs the max over its chains — and charges the level to
/// `ledger`. `row` is scratch for one chain's Lemma 45 pass (its inputs,
/// folded in place). At width 1 the chains run inline, in order, on the
/// caller's row; otherwise on the pool, each task leasing its own row.
/// Either way every chain writes only its own nodes' slots and its own
/// ledger, so results and charges are bit-identical at any width.
template <typename V, typename ChainFn>
void run_chain_level(const ChainLayout& layout, int d, std::vector<V>& row, Ledger& ledger,
                     ChainFn&& chain_fn) {
  const std::size_t lo = layout.first_chain(d);
  const std::size_t count = layout.end_chain(d) - lo;
  ScratchLease<std::vector<Ledger>> chain_ledgers_s;
  std::vector<Ledger>& chain_ledgers = *chain_ledgers_s;
  chain_ledgers.assign(count, Ledger{});
  const int width = chain_level_width(count, layout.level_nodes(d));
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) chain_fn(lo + i, chain_ledgers[i], row);
  } else {
    ThreadPool::global().run(count, width, [&](std::size_t i) {
      ScratchLease<std::vector<V>> task_row;
      chain_fn(lo + i, chain_ledgers[i], *task_row);
    });
  }
  Ledger level;
  level.charge_parallel(std::span<const Ledger>(chain_ledgers.data(), count));
  ledger.charge_sequential(level);
}
}  // namespace detail

/// Lemma 46 (subtree sums): s_v = fold of input over desc(v), into `s`
/// (overwritten; a leased row keeps its capacity).
template <Aggregator A>
void hl_subtree_sums(const RootedTree& t, const HeavyLightDecomposition& hld,
                     std::span<const typename A::value_type> input, Ledger& ledger,
                     std::vector<typename A::value_type>& s) {
  using V = typename A::value_type;
  UMC_ASSERT(static_cast<NodeId>(input.size()) == t.n());
  ScratchLease<ChainLayout> layout_s;
  build_chain_layout(t, hld, *layout_s);
  const ChainLayout& layout = *layout_s;
  ScratchLease<std::vector<V>> row;
  // Filled deepest-first: a chain reads only slots that deeper levels
  // already wrote, and writes only its own nodes' slots.
  s.assign(static_cast<std::size_t>(t.n()), A::identity());
  const auto chain_fn = [&](std::size_t c, Ledger& cl, std::vector<V>& x) {
    const std::span<const NodeId> chain = layout.chain(c);
    // x_v = input_v ⊕ (already-computed sums of non-heavy children).
    x.clear();
    for (const NodeId v : chain) {
      V acc = input[static_cast<std::size_t>(v)];
      for (const NodeId ch : t.children(v)) {
        if (hld.chain_head(ch) == ch)  // non-heavy child: starts its own chain
          acc = A::merge(std::move(acc), std::as_const(s[static_cast<std::size_t>(ch)]));
      }
      x.push_back(std::move(acc));
    }
    cl.charge(1);  // the x_v initialization round (edge-local pass)
    path_suffix_sums_in_place<A>(x, cl);
    for (std::size_t i = 0; i < chain.size(); ++i)
      s[static_cast<std::size_t>(chain[i])] = std::move(x[i]);
  };
  for (int d = layout.levels() - 1; d >= 0; --d)
    detail::run_chain_level<V>(layout, d, *row, ledger, chain_fn);
}
template <Aggregator A>
std::vector<typename A::value_type> hl_subtree_sums(
    const RootedTree& t, const HeavyLightDecomposition& hld,
    std::span<const typename A::value_type> input, Ledger& ledger) {
  std::vector<typename A::value_type> s;
  hl_subtree_sums<A>(t, hld, input, ledger, s);
  return s;
}

/// The rounds hl_subtree_sums charges on (t, hld), without running it: the
/// charge depends on the chains alone, not on the payload. Each HL-depth
/// level costs its longest chain's x_v round plus Lemma 45 pass,
/// 2 + ceil(log2 length); levels add. No counters.
[[nodiscard]] std::int64_t hl_subtree_sum_rounds(const RootedTree& t,
                                                 const HeavyLightDecomposition& hld);

/// Lemma 46 (ancestor sums): p_v = fold of input over anc(v) (v included).
template <Aggregator A>
std::vector<typename A::value_type> hl_ancestor_sums(
    const RootedTree& t, const HeavyLightDecomposition& hld,
    std::span<const typename A::value_type> input, Ledger& ledger) {
  using V = typename A::value_type;
  UMC_ASSERT(static_cast<NodeId>(input.size()) == t.n());
  ScratchLease<ChainLayout> layout_s;
  build_chain_layout(t, hld, *layout_s);
  const ChainLayout& layout = *layout_s;
  ScratchLease<std::vector<V>> row;
  std::vector<V> p(static_cast<std::size_t>(t.n()), A::identity());
  // Node-disjoint chains; the carry reads only shallower (already
  // complete) levels, so parallel execution stays bit-identical.
  const auto chain_fn = [&](std::size_t c, Ledger& cl, std::vector<V>& x) {
    const std::span<const NodeId> chain = layout.chain(c);
    // Carry = ancestor sum of the chain head's parent (shallower depth,
    // already computed).
    const NodeId above = t.parent(chain.front());
    x.clear();
    for (std::size_t i = 0; i < chain.size(); ++i) {
      V val = input[static_cast<std::size_t>(chain[i])];
      if (i == 0 && above != kNoNode)
        val = A::merge(p[static_cast<std::size_t>(above)], std::move(val));
      x.push_back(std::move(val));
    }
    cl.charge(1);
    path_prefix_sums_in_place<A>(x, cl);
    for (std::size_t i = 0; i < chain.size(); ++i)
      p[static_cast<std::size_t>(chain[i])] = std::move(x[i]);
  };
  for (int d = 0; d < layout.levels(); ++d)
    detail::run_chain_level<V>(layout, d, *row, ledger, chain_fn);
  return p;
}

/// Lemma 47 / Theorem 48: deterministic heavy-light construction. Charges
/// the real merging schedule (star merges over the part graph) through
/// hl_schedule_charge(t.parents()) and builds the decomposition into `out`
/// (rebuilt in place, so a leased one does not allocate). Counters:
/// "hl_merge_iterations", "cv_iterations". Callers that need only the
/// charge, such as the 2-respecting recursion's spider instances (stars and
/// path pairs), call hl_schedule_charge or hl_path_pair_schedule_charge and
/// build no tree.
void hl_construct(const RootedTree& t, Ledger& ledger, HeavyLightDecomposition& out);
[[nodiscard]] HeavyLightDecomposition hl_construct(const RootedTree& t, Ledger& ledger);

/// The Lemma 47 schedule's charge for the tree whose parent array is
/// `parents` (kNoNode at the root), without building anything. The charge
/// is a pure function of the parent array, and the 2-respecting recursion
/// schedules the same small trees over and over. So each thread keeps a
/// bounded table from exact parent arrays (compared in full, never by hash
/// alone) to the charge their schedule made: the first sighting of a
/// labelled tree on a thread runs the schedule, repeats replay its charge —
/// the same rounds and counter bumps, so ledgers are byte-identical either
/// way.
void hl_schedule_charge(std::span<const NodeId> parents, Ledger& ledger);

/// hl_schedule_charge of a canonically numbered two-leg spider: root 0,
/// the first leg 1..p and the second p+1..p+q, each top to bottom (how
/// path-to-path instances are numbered). Legs up to
/// detail::kHlPathPairSide nodes read a per-thread (p, q) table; longer
/// ones go through the parent-array table.
void hl_path_pair_schedule_charge(std::size_t p, std::size_t q, Ledger& ledger);

namespace detail {
/// Bounds of hl_schedule_charge's per-thread table: at most this many trees
/// and this many stored parent ids in all; the table is cleared when either
/// would overflow, and a larger tree is never stored.
inline constexpr std::size_t kHlScheduleEntries = 256;
inline constexpr std::size_t kHlScheduleKeyIds = std::size_t{1} << 16;

/// Longest leg of hl_path_pair_schedule_charge's per-thread (p, q) table:
/// kHlPathPairSide² entries of three int32s (48 KiB per thread).
inline constexpr std::size_t kHlPathPairSide = 64;

/// The Lemma 47 merging schedule of the tree `parents`, always run in full
/// and charged to `ledger`; the replay tables sit in front of it. Parts are
/// tracked in a dense row indexed by the rank of their smallest node, which
/// Cole–Vishkin reads as the parts' initial colors. Exposed so tests can
/// compare replayed charges against fresh runs.
void hl_merge_schedule(std::span<const NodeId> parents, Ledger& ledger);
}  // namespace detail

/// Lemma 42: centroid via one subtree-sum plus two constant rounds.
[[nodiscard]] NodeId find_centroid_ma(const RootedTree& t, const HeavyLightDecomposition& hld,
                                      Ledger& ledger);

/// Theorem 48: orient an UNROOTED tree toward `root` and build the rooted
/// structure. Runs the real merging schedule — each part marks an ARBITRARY
/// adjacent outgoing edge (2-cycles possible, which the Cole-Vishkin star
/// merging tolerates), joiners merge into receivers, and each iteration
/// pays the orientation-fix + relabel cost of the proof. Counter:
/// "orient_merge_iterations".
[[nodiscard]] RootedTree orient_tree(const WeightedGraph& g, std::span<const EdgeId> tree_edges,
                                     NodeId root, Ledger& ledger);

}  // namespace umc::minoragg
