#include "mincut/interest.hpp"

#include <algorithm>

#include "minoragg/path_sums.hpp"
#include "sketch/misra_gries.hpp"
#include "util/scratch.hpp"

namespace umc::mincut {

namespace {

/// Sketch capacity h for the Lemma 32 heavy hitters: with h = 5 every key
/// of frequency > W/2 (strong interest) is reported and every reported key
/// has frequency > W/5 (weak interest).
constexpr int kInterestCapacity = 5;

struct MgAgg {
  using value_type = MisraGries;
  static value_type identity() { return MisraGries(kInterestCapacity); }
  /// The Misra-Gries union is symmetric (pointwise sums, then the same
  /// reduction), so it folds into whichever operand the caller hands over.
  static value_type merge(const value_type& a, value_type b) {
    return MisraGries::merge(std::move(b), a);
  }
};

}  // namespace

void path_of_node(const StarInstance& inst, std::vector<int>& of) {
  of.assign(static_cast<std::size_t>(inst.graph.n()), -1);
  for (int i = 0; i < inst.k(); ++i)
    for (const NodeId v : inst.path_nodes[static_cast<std::size_t>(i)])
      of[static_cast<std::size_t>(v)] = i;
}

void interest_lists(const StarInstance& inst, minoragg::Ledger& ledger, PathRows& lists) {
  ScratchLease<std::vector<int>> of_s;
  std::vector<int>& of = *of_s;
  path_of_node(inst, of);
  // One round: each cross-edge labels both endpoints with the opposite
  // path id, weighted by the edge weight (Lemma 32's label assignment).
  ledger.charge(1);
  lists.offsets.assign(1, 0);
  lists.ids.clear();
  ScratchLease<std::vector<minoragg::Ledger>> path_ledgers_s;
  std::vector<minoragg::Ledger>& path_ledgers = *path_ledgers_s;
  path_ledgers.assign(static_cast<std::size_t>(inst.k()), minoragg::Ledger{});
  ScratchLease<std::vector<MisraGries>> row_s;
  ScratchLease<std::vector<MisraGries::Key>> found_s;
  std::vector<MisraGries>& row = *row_s;
  std::vector<MisraGries::Key>& found = *found_s;
  // Per path: each node sketches its cross-edges (in edge id order) in the
  // path's row, then the row is suffix-folded bottom-up (the suffix at node
  // v is the sketch of cross-edges covering v's parent edge); all paths are
  // node-disjoint, so they run simultaneously (Corollary 11).
  for (int i = 0; i < inst.k(); ++i) {
    row.clear();
    for (const NodeId v : inst.path_nodes[static_cast<std::size_t>(i)]) {
      MisraGries& sketch = row.emplace_back(kInterestCapacity);
      for (const AdjEntry& a : inst.graph.adj(v)) {
        const int p = of[static_cast<std::size_t>(a.to)];
        if (p >= 0 && p != i)
          sketch.add(static_cast<MisraGries::Key>(p), inst.graph.edge(a.edge).w);
      }
    }
    minoragg::path_suffix_sums_in_place<MgAgg>(row, path_ledgers[static_cast<std::size_t>(i)]);
    found.clear();
    for (const MisraGries& s : row) s.append_heavy_hitters(found);
    std::sort(found.begin(), found.end());
    found.erase(std::unique(found.begin(), found.end()), found.end());
    lists.ids.insert(lists.ids.end(), found.begin(), found.end());
    lists.offsets.push_back(static_cast<std::int32_t>(lists.ids.size()));
  }
  ledger.charge_parallel(path_ledgers);
  ledger.charge(1);  // union of the per-node heavy-hitter lists per path
}

void interest_graph(const PathRows& lists, PathRows& adj) {
  const auto interested = [&lists](int i, int j) {
    const std::span<const int> li = lists[static_cast<std::size_t>(i)];
    return std::binary_search(li.begin(), li.end(), j);
  };
  // Each mutual pair i < j once, in (i, j) order: count the rows, then fill.
  const std::size_t k = lists.size();
  const auto for_each_pair = [&](auto&& f) {
    for (std::size_t i = 0; i < k; ++i)
      for (const int j : lists[i])
        if (static_cast<std::size_t>(j) > i && interested(j, static_cast<int>(i)))
          f(i, static_cast<std::size_t>(j));
  };
  adj.offsets.assign(k + 1, 0);
  for_each_pair([&](std::size_t i, std::size_t j) {
    ++adj.offsets[i + 1];
    ++adj.offsets[j + 1];
  });
  for (std::size_t i = 0; i < k; ++i) adj.offsets[i + 1] += adj.offsets[i];
  adj.ids.resize(static_cast<std::size_t>(adj.offsets[k]));
  ScratchLease<std::vector<std::int32_t>> cursor_s;
  std::vector<std::int32_t>& cursor = *cursor_s;
  cursor.assign(adj.offsets.begin(), adj.offsets.end() - 1);
  for_each_pair([&](std::size_t i, std::size_t j) {
    adj.ids[static_cast<std::size_t>(cursor[i]++)] = static_cast<int>(j);
    adj.ids[static_cast<std::size_t>(cursor[j]++)] = static_cast<int>(i);
  });
  for (std::size_t i = 0; i < k; ++i)
    std::sort(adj.ids.begin() + adj.offsets[i], adj.ids.begin() + adj.offsets[i + 1]);
}

}  // namespace umc::mincut
