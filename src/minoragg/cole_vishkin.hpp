#pragma once

// Deterministic Cole-Vishkin 3-coloring of out-degree-(<=1) graphs.
//
// This is the engine behind deterministic star-merging (Lemma 44): colors
// start as unique ids and shrink by the bit-index trick in O(log* n)
// iterations, then a shift-down + recolor pass reduces {0..5} to {0..2}.
// Each iteration is one Minor-Aggregation round in the communication model
// of the Lemma 44 proof (a node broadcasts O(log n) bits read by the nodes
// pointing at it); the ledger is charged accordingly, and the iteration
// count is recorded in the "cv_iterations" counter.

#include <cstdint>
#include <span>
#include <vector>

#include "minoragg/ledger.hpp"

namespace umc::minoragg {

/// out[v] = the out-neighbor of v, or -1 if v has out-degree 0. Self-loops
/// are forbidden; 2-cycles are allowed (they arise in Theorem 48, where
/// parts mark arbitrary adjacent edges). Returns a proper coloring with
/// colors in {0, 1, 2} ("proper" w.r.t. the underlying undirected edges)
/// in `color` (overwritten).
///
/// The working color tables live in caller scratch: star merging runs this
/// once per merge iteration, thousands of times per solve, so a schedule
/// keeps one ColeVishkinScratch for all of its iterations. Contents are
/// overwritten; only the capacity carries over.
struct ColeVishkinScratch {
  std::vector<std::uint64_t> color, next, shifted;
};
void cole_vishkin_3color(std::span<const int> out, Ledger& ledger, std::vector<int>& color,
                         ColeVishkinScratch& scratch);

}  // namespace umc::minoragg
