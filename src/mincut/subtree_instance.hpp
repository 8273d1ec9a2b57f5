#pragma once

// Between-subtree 2-respecting min-cut (Section 8, Theorem 39, Figures 3/4).
//
// The instance tree is rooted at a hub whose child branches are the
// subtrees T_1..T_k. Pairwise coloring (Lemma 38, chi = O(log k) bit
// assignments) breaks the symmetry between the two optimal subtrees; for
// every (color assignment, HL-depth d1, HL-depth d2) triple, contracting
// every tree edge of the wrong HL-depth turns the instance into a star
// (Figure 4), solved by Theorem 27. Contractions preserve the cut values of
// the surviving tree edges, so every value examined is a true cut.

#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"

namespace umc::mincut {

/// min of candidate 1-respecting cuts and candidate pairs (e, f) lying in
/// DIFFERENT child branches of the hub `t.root()` (branch edges {root,
/// child} belong to their branch). `t` spans `inst.graph` (`t.host()` is
/// it); inst.root is not read. Counters: "subtree_star_calls".
[[nodiscard]] CutResult between_subtree_mincut(const RootedTree& t, const InstanceCore& inst,
                                               minoragg::Ledger& ledger);

}  // namespace umc::mincut
