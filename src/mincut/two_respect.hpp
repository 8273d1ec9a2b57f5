#pragma once

// General 2-respecting min-cut (Section 9, Theorem 40) — the paper's main
// deterministic building block.
//
// Recursion around the tree centroid (Fact 41 / Lemma 42): cross-branch
// pairs are handled by the between-subtree algorithm (Theorem 39);
// same-branch pairs recurse on the cut-equivalent private graphs H_i of
// Lemma 43 (Figure 5), where everything outside a branch is absorbed into a
// private virtual centroid. Recursive calls are node-disjoint and run
// simultaneously (Corollary 11); each call's local work is multiplied by
// its own (beta + 1) virtual-node factor (Theorem 14), with beta <=
// O(log n) because every recursion level adds exactly one virtual centroid.
// Theorem 18 runs once, at the top; every sub-instance inherits its tree
// edges' Cut values (InstanceCore::cut).

#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"

namespace umc::mincut {

/// min over tree-edge pairs (e, f) of Cut(e, f) for the spanning tree
/// `tree_edges` of g, including e == f (the 1-respecting cuts). Results
/// name edges of g. Counters: "max_general_depth", "max_beta",
/// "subtree_star_calls".
[[nodiscard]] CutResult two_respecting_mincut(const WeightedGraph& g,
                                              std::span<const EdgeId> tree_edges, NodeId root,
                                              minoragg::Ledger& ledger);

}  // namespace umc::mincut
