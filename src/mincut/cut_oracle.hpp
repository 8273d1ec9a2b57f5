#pragma once

// Host-speed exact evaluation of EVERY 1- and 2-respecting cut of one
// rooted spanning tree — the warm path's fast twin of
// two_respecting_mincut, in the same spirit as BoruvkaPacker next to the
// MA-simulated Borůvka (minoragg::boruvka_mst) that tests keep as its
// reference: the round-faithful solver charges Definition 9 rounds and is
// what the CONGEST claims rest on; this oracle answers the identical
// combinatorial question at native speed for callers (the incremental
// stream tier) that need per-tree minima dozens of times per second.
//
// The candidate set is exactly the solver's: cuts crossing one tree edge
// (subtree(v) for every non-root v) or two tree edges (S_u \ S_v for
// nested pairs, S_u ∪ S_v for disjoint pairs). All O(n^2) values come from
// three tree accumulations:
//
//   cut1[v]  = sdeg[v] - 2·in[v]        (subtree weighted-degree sum minus
//                                        twice the mass lca-internal to it)
//   disjoint = cut1[u] + cut1[v] - 2·X[u][v]   X = W(S_u, S_v)
//   nested   = cut1[u] - cut1[v] + 2·N[u][v]   N = W(S_v, S_u \ S_v)
//
// X and N are filled in O(m·depth^2) by walking each edge's two
// endpoint-to-lca ancestor chains; the scan is O(n^2) with O(1) ancestry
// tests. Memory is O(n^2) words — sized for resident stream instances, not
// the distributed regime (the MA solver stays the tool there).
//
// Besides the minimum, the scan keeps what branch-and-bound needs and the
// recursive solver cannot cheaply expose: the runner-up value (min over all
// OTHER candidate cuts — under ties it equals the minimum, which only makes
// downstream skip bounds conservative) and the argmin bipartition as a node
// bitmap, so a stream lineage can re-price the argmin cut per update in
// O(1) per edge touched.

#include <vector>

#include "graph/graph.hpp"
#include "mincut/instance.hpp"
#include "tree/rooted_tree.hpp"

namespace umc::mincut {

struct TwoRespectEval {
  /// Same minimum as two_respecting_mincut over the same candidate set;
  /// the defining pair may differ under in-tree value ties (ties here
  /// resolve to singles first, then lexicographic node order).
  CutResult best;
  /// Minimum over every other candidate cut; kInfWeight when the tree has
  /// a single candidate (n == 2).
  Weight runner_up = kInfWeight;
  /// best's bipartition (side[root] == false) — matches the convention of
  /// cut_witness: subtree(bottom(e)) XOR subtree(bottom(f)).
  std::vector<bool> side;
};

[[nodiscard]] TwoRespectEval evaluate_two_respecting(const RootedTree& t);

}  // namespace umc::mincut
