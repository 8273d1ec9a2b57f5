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

std::vector<std::vector<int>> interest_lists(const StarInstance& inst,
                                             minoragg::Ledger& ledger) {
  ScratchLease<std::vector<int>> of_s;
  std::vector<int>& of = *of_s;
  path_of_node(inst, of);
  // One round: each cross-edge labels both endpoints with the opposite
  // path id, weighted by the edge weight (Lemma 32's label assignment).
  ledger.charge(1);
  std::vector<MisraGries> node_sketch(static_cast<std::size_t>(inst.graph.n()),
                                      MgAgg::identity());
  for (const Edge& e : inst.graph.edges()) {
    const int pu = of[static_cast<std::size_t>(e.u)];
    const int pv = of[static_cast<std::size_t>(e.v)];
    if (pu < 0 || pv < 0 || pu == pv) continue;  // not a cross-edge
    node_sketch[static_cast<std::size_t>(e.u)].add(static_cast<MisraGries::Key>(pv), e.w);
    node_sketch[static_cast<std::size_t>(e.v)].add(static_cast<MisraGries::Key>(pu), e.w);
  }

  // Per path: suffix-fold the sketches bottom-up (the suffix at node v is
  // the sketch of cross-edges covering v's parent edge); all paths are
  // node-disjoint, so they run simultaneously (Corollary 11). Each node lies
  // on one path, so its sketch moves into the path's row.
  std::vector<std::vector<int>> lists(static_cast<std::size_t>(inst.k()));
  std::vector<minoragg::Ledger> path_ledgers(static_cast<std::size_t>(inst.k()));
  ScratchLease<std::vector<MisraGries>> row_s;
  ScratchLease<std::vector<MisraGries::Key>> found_s;
  std::vector<MisraGries>& row = *row_s;
  std::vector<MisraGries::Key>& found = *found_s;
  for (int i = 0; i < inst.k(); ++i) {
    row.clear();
    for (const NodeId v : inst.path_nodes[static_cast<std::size_t>(i)])
      row.push_back(std::move(node_sketch[static_cast<std::size_t>(v)]));
    minoragg::path_suffix_sums_in_place<MgAgg>(row, path_ledgers[static_cast<std::size_t>(i)]);
    found.clear();
    for (const MisraGries& s : row) s.append_heavy_hitters(found);
    std::sort(found.begin(), found.end());
    found.erase(std::unique(found.begin(), found.end()), found.end());
    lists[static_cast<std::size_t>(i)].assign(found.begin(), found.end());
  }
  ledger.charge_parallel(path_ledgers);
  ledger.charge(1);  // union of the per-node heavy-hitter lists per path
  return lists;
}

std::vector<std::vector<int>> interest_graph(const std::vector<std::vector<int>>& lists) {
  const auto interested = [&lists](int i, int j) {
    const auto& li = lists[static_cast<std::size_t>(i)];
    return std::binary_search(li.begin(), li.end(), j);
  };
  std::vector<std::vector<int>> adj(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (const int j : lists[i]) {
      if (j == static_cast<int>(i)) continue;
      if (static_cast<std::size_t>(j) < i) continue;  // handle each pair once
      if (interested(j, static_cast<int>(i))) {
        adj[i].push_back(j);
        adj[static_cast<std::size_t>(j)].push_back(static_cast<int>(i));
      }
    }
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());
  return adj;
}

}  // namespace umc::mincut
