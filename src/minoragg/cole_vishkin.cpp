#include "minoragg/cole_vishkin.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"

namespace umc::minoragg {

namespace {

/// Smallest bit index at which a and b differ. Requires a != b.
int first_diff_bit(std::uint64_t a, std::uint64_t b) {
  return __builtin_ctzll(a ^ b);
}

int pick_not_in(int banned1, int banned2) {
  for (int c = 0; c < 3; ++c)
    if (c != banned1 && c != banned2) return c;
  UMC_ASSERT_MSG(false, "three colors always leave one free of two bans");
  return 0;
}

}  // namespace

void cole_vishkin_3color(std::span<const int> out, Ledger& ledger, std::vector<int>& result,
                         ColeVishkinScratch& scratch) {
  const std::size_t n = out.size();
  // Every iteration writes the fresh table in full and swaps it in, so
  // nothing reallocates.
  std::vector<std::uint64_t>& color = scratch.color;
  std::vector<std::uint64_t>& next = scratch.next;
  std::vector<std::uint64_t>& shifted = scratch.shifted;
  color.resize(n);
  next.resize(n);
  shifted.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    UMC_ASSERT_MSG(out[v] != static_cast<int>(v), "self-loops are not allowed");
    color[v] = static_cast<std::uint64_t>(v);  // unique initial colors
  }

  // Bit-index reduction: colors drop to {0..5} in O(log* n) iterations.
  bool big = n > 0;
  while (big) {
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t mine = color[v];
      // Roots compare against a fake neighbor differing at bit 0.
      const std::uint64_t theirs = out[v] >= 0 ? color[static_cast<std::size_t>(out[v])] : mine ^ 1;
      UMC_ASSERT_MSG(mine != theirs, "coloring must stay proper");
      const int i = first_diff_bit(mine, theirs);
      next[v] = 2 * static_cast<std::uint64_t>(i) + ((mine >> i) & 1);
    }
    color.swap(next);
    ledger.charge(1);
    ledger.bump(CounterId::cv_iterations);
    big = std::any_of(color.begin(), color.end(), [](std::uint64_t c) { return c >= 6; });
  }

  // Reduce {0..5} -> {0..2}: for each class c in {5,4,3}: shift-down (every
  // node adopts its out-neighbor's color, making in-neighborhoods
  // monochromatic), then class-c nodes pick a free color in {0,1,2}.
  for (int c = 5; c >= 3; --c) {
    for (std::size_t v = 0; v < n; ++v) {
      shifted[v] = out[v] >= 0 ? color[static_cast<std::size_t>(out[v])]
                               : static_cast<std::uint64_t>(pick_not_in(
                                     static_cast<int>(color[v]), -1));
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (shifted[v] != static_cast<std::uint64_t>(c)) {
        next[v] = shifted[v];
        continue;
      }
      // In-neighbors now all carry v's pre-shift color; out-neighbor has its
      // shifted color. Avoid both.
      const int out_color =
          out[v] >= 0 ? static_cast<int>(shifted[static_cast<std::size_t>(out[v])]) : -1;
      next[v] = static_cast<std::uint64_t>(pick_not_in(static_cast<int>(color[v]), out_color));
    }
    color.swap(next);
    ledger.charge(2);  // one round to shift, one to recolor the class
  }

  result.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    UMC_ASSERT(color[v] <= 2);
    result[v] = static_cast<int>(color[v]);
  }
}

}  // namespace umc::minoragg
