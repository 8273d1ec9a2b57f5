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
/// it); inst.root is not read. Cut(e) comes from the carried row inst.cut,
/// and the 1-respecting step charges what Theorem 18 would
/// (carried_one_respecting_cuts). Counters: "subtree_star_calls".
[[nodiscard]] CutResult between_subtree_mincut(const RootedTree& t, const InstanceCore& inst,
                                               minoragg::Ledger& ledger);

/// The top of the 2-respecting recursion, whose instance has no parent to
/// carry Cut(e) from: runs Theorem 18 on the hub tree, charged, to fill
/// inst.cut, then continues as between_subtree_mincut. The stars it builds
/// inherit the row.
[[nodiscard]] CutResult root_between_subtree_mincut(const RootedTree& t, InstanceCore& inst,
                                                    minoragg::Ledger& ledger);

}  // namespace umc::mincut
