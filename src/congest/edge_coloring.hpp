#pragma once

// Deterministic edge coloring with O(Δ) colors (the Lemma 35 ingredient —
// Panconesi–Rizzi [31]).
//
// The coloring itself is the sequential greedy by edge id, which uses at
// most 2Δ-1 colors and is deterministic; each color class is a matching.
// The round charge reported is the Panconesi–Rizzi bound O(Δ + log* n),
// which Lemma 34 then converts into Minor-Aggregation rounds on the host
// network with an O(1) factor.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace umc::congest {

struct EdgeColoring {
  int num_colors = 0;
  int max_degree = 0;
  std::int64_t congest_rounds = 0;  // Panconesi-Rizzi charge O(Δ + log* n)
};

/// Colors every edge of g into `color` (per edge, in [0, num_colors);
/// overwritten, so a leased row keeps its capacity).
[[nodiscard]] EdgeColoring deterministic_edge_coloring(const WeightedGraph& g,
                                                       std::vector<int>& color);

}  // namespace umc::congest
