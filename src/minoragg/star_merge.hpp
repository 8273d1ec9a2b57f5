#pragma once

// Deterministic star-merging (Lemma 44).
//
// Input: an oriented graph over "parts" where every part has out-degree at
// most 1 (O = parts with out-degree exactly 1). Output: a partition into
// receivers R and joiners J with (1) |J| >= |O|/3, (2) J ⊆ O, and (3) every
// joiner's out-edge points to a receiver — so merging joiners into their
// receivers contracts star-shaped groups only.
//
// This replaces the randomized coin-flip star merging used throughout the
// low-congestion shortcut framework and is what makes the Appendix A
// primitives deterministic.

#include <span>
#include <vector>

#include "minoragg/cole_vishkin.hpp"
#include "minoragg/ledger.hpp"

namespace umc::minoragg {

struct StarMergeResult {
  std::vector<bool> is_joiner;  // per part; receivers are the complement
  int num_joiners = 0;
  int out_degree_one = 0;  // |O|
};

/// Caller scratch of one star merge: its Cole-Vishkin tables and coloring.
/// A merging schedule keeps one for all of its iterations.
struct StarMergeScratch {
  ColeVishkinScratch cv;
  std::vector<int> color;
};

/// out[p] = out-neighbor part of p, or -1. Charges the Cole-Vishkin rounds
/// plus one counting round. Rebuilds `res` in place.
void star_merge(std::span<const int> out, Ledger& ledger, StarMergeResult& res,
                StarMergeScratch& scratch);

}  // namespace umc::minoragg
