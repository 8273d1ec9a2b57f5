#include "minoragg/star_merge.hpp"

#include <array>

#include "util/assert.hpp"

namespace umc::minoragg {

void star_merge(std::span<const int> out, Ledger& ledger, StarMergeResult& res,
                StarMergeScratch& scratch) {
  cole_vishkin_3color(out, ledger, scratch.color, scratch.cv);
  const std::vector<int>& color = scratch.color;

  // One counting round: N_k = #{v in O : color k}; pick the most frequent.
  std::array<int, 3> count{0, 0, 0};
  int out_degree_one = 0;
  for (std::size_t v = 0; v < out.size(); ++v) {
    if (out[v] < 0) continue;
    ++out_degree_one;
    ++count[static_cast<std::size_t>(color[v])];
  }
  ledger.charge(1);
  int best = 0;
  for (int k = 1; k < 3; ++k)
    if (count[static_cast<std::size_t>(k)] > count[static_cast<std::size_t>(best)]) best = k;

  res.out_degree_one = out_degree_one;
  res.num_joiners = 0;
  res.is_joiner.assign(out.size(), false);
  for (std::size_t v = 0; v < out.size(); ++v) {
    if (out[v] >= 0 && color[v] == best) {
      res.is_joiner[v] = true;
      ++res.num_joiners;
    }
  }
  UMC_ASSERT_MSG(3 * res.num_joiners >= out_degree_one, "Lemma 44: |J| >= |O|/3");
  // Joiners point to receivers: adjacent nodes have different colors, and
  // all joiners share one color, so no joiner points at a joiner.
  for (std::size_t v = 0; v < out.size(); ++v)
    if (res.is_joiner[v]) UMC_ASSERT(!res.is_joiner[static_cast<std::size_t>(out[v])]);
}

}  // namespace umc::minoragg
