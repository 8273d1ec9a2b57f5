#include "congest/edge_coloring.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"

namespace umc::congest {

EdgeColoring deterministic_edge_coloring(const WeightedGraph& g, std::vector<int>& color) {
  EdgeColoring out;
  color.assign(static_cast<std::size_t>(g.m()), -1);
  for (NodeId v = 0; v < g.n(); ++v) out.max_degree = std::max(out.max_degree, g.degree(v));

  ScratchLease<std::vector<bool>> used_s;
  std::vector<bool>& used = *used_s;
  for (EdgeId e = 0; e < g.m(); ++e) {
    // mex over colors already used at either endpoint.
    used.assign(static_cast<std::size_t>(2 * out.max_degree), false);
    const Edge& ed = g.edge(e);
    for (const NodeId x : {ed.u, ed.v}) {
      for (const AdjEntry& a : g.adj(x)) {
        const int c = color[static_cast<std::size_t>(a.edge)];
        if (c >= 0) used[static_cast<std::size_t>(c)] = true;
      }
    }
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    color[static_cast<std::size_t>(e)] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
  UMC_ASSERT_MSG(out.num_colors <= std::max(1, 2 * out.max_degree - 1),
                 "greedy edge coloring uses at most 2Δ-1 colors");

  out.congest_rounds =
      out.max_degree + log_star(static_cast<std::uint64_t>(std::max<NodeId>(2, g.n()))) + 1;
  return out;
}

}  // namespace umc::congest
