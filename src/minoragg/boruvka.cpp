#include "minoragg/boruvka.hpp"

#include <algorithm>
#include <set>

#include "minoragg/network.hpp"
#include "util/assert.hpp"

namespace umc::minoragg {

std::vector<EdgeId> boruvka_mst(const WeightedGraph& g, std::span<const std::int64_t> cost,
                                Ledger& ledger) {
  UMC_ASSERT(static_cast<EdgeId>(cost.size()) == g.m());
  UMC_ASSERT(g.n() >= 1);
  Network net(g, ledger);

  std::vector<bool> selected(static_cast<std::size_t>(g.m()), false);
  const std::vector<std::int64_t> zeros(static_cast<std::size_t>(g.n()), 0);
  for (;;) {
    // One Definition 9 round: contract the forest; every surviving minor
    // edge proposes (cost, id) to both sides; min-aggregate per supernode.
    const auto res = net.round<SumAgg, MinPairAgg>(
        selected, zeros,
        [&cost](EdgeId e, const std::int64_t&, const std::int64_t&) {
          const MinPairAgg::value_type z{cost[static_cast<std::size_t>(e)],
                                         static_cast<std::int64_t>(e)};
          return std::pair{z, z};
        });

    // Collect the chosen minimum outgoing edge of each supernode.
    std::set<EdgeId> chosen;
    bool contracted_everything = true;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (res.supernode[static_cast<std::size_t>(v)] != res.supernode[0])
        contracted_everything = false;
      const auto& [c, id] = res.aggregate[static_cast<std::size_t>(v)];
      if (id != MinPairAgg::identity().second) chosen.insert(static_cast<EdgeId>(id));
    }
    if (contracted_everything) break;
    UMC_ASSERT_MSG(!chosen.empty(), "boruvka requires a connected graph");
    for (const EdgeId e : chosen) selected[static_cast<std::size_t>(e)] = true;
    ledger.bump(CounterId::boruvka_iterations);
  }

  std::vector<EdgeId> tree;
  for (EdgeId e = 0; e < g.m(); ++e)
    if (selected[static_cast<std::size_t>(e)]) tree.push_back(e);
  UMC_ASSERT(static_cast<NodeId>(tree.size()) == g.n() - 1);
  return tree;
}

}  // namespace umc::minoragg
