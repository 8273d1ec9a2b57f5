#pragma once

// Reference Lemma 47 merging schedule for tests: parts tracked in a
// disjoint-set forest, renumbered by a full node scan and given their top
// node by a depth scan on every iteration. The solver's schedule
// (minoragg::detail::hl_merge_schedule) tracks the same parts in a dense
// part-index row and must charge exactly what this one charges.

#include <vector>

#include "graph/dsu.hpp"
#include "minoragg/ledger.hpp"
#include "minoragg/star_merge.hpp"
#include "tree/rooted_tree.hpp"
#include "util/math.hpp"

namespace umc::minoragg {

/// The Lemma 47 schedule of `t`, charged to `ledger`: parts start as
/// singletons; every non-root part marks the edge above its top
/// (minimum-depth) node; star merging unites each joiner with the part it
/// marked; every iteration also pays the within-part Lemma 46 relabel.
/// Parts are numbered by their smallest node, which Cole–Vishkin reads as
/// their initial colors.
inline void reference_hl_merge_schedule(const RootedTree& t, Ledger& ledger) {
  const NodeId n = t.n();
  Dsu parts(n);
  const std::int64_t lemma46_cost =
      2 * (static_cast<std::int64_t>(ceil_log2(static_cast<std::uint64_t>(n) + 1)) + 2);
  StarMergeResult sm;
  StarMergeScratch scratch;
  while (parts.num_components() > 1) {
    // Dense part ids in smallest-member order.
    std::vector<NodeId> rep_of(static_cast<std::size_t>(n), kNoNode);
    std::vector<NodeId> part_rep;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId r = parts.find(v);
      if (rep_of[static_cast<std::size_t>(r)] == kNoNode) {
        rep_of[static_cast<std::size_t>(r)] = static_cast<NodeId>(part_rep.size());
        part_rep.push_back(r);
      }
    }
    const std::size_t k = part_rep.size();
    std::vector<NodeId> top(k, kNoNode);
    for (NodeId v = 0; v < n; ++v) {
      const auto p = static_cast<std::size_t>(rep_of[static_cast<std::size_t>(parts.find(v))]);
      if (top[p] == kNoNode || t.depth(v) < t.depth(top[p])) top[p] = v;
    }
    std::vector<int> out(k, -1);
    for (std::size_t p = 0; p < k; ++p) {
      const NodeId parent = t.parent(top[p]);
      if (parent != kNoNode) out[p] = rep_of[static_cast<std::size_t>(parts.find(parent))];
    }
    star_merge(out, ledger, sm, scratch);
    for (std::size_t p = 0; p < k; ++p)
      if (sm.is_joiner[p]) parts.unite(part_rep[p], top[static_cast<std::size_t>(out[p])]);
    ledger.charge(lemma46_cost);
    ledger.bump(CounterId::hl_merge_iterations);
  }
}

}  // namespace umc::minoragg
