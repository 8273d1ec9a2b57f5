#pragma once

// Virtual-node extension of the Minor-Aggregation model (Section 4.1).
//
// A VirtualGraph extends a real communication graph with beta arbitrarily
// connected virtual nodes (Definition 13). Any tau-round algorithm on the
// virtual graph costs tau * O(beta + 1) rounds on the real graph
// (Theorem 14); `settle` applies exactly that charge, with the (beta + 1)
// constant — the multiplier the Theorem 14 proof realizes (beta rounds to
// process each virtual supernode plus one round for the rest).
//
// Lemma 15 ("replace a node by a virtual substitute") is `virtualize_node`.

#include <vector>

#include "graph/graph.hpp"
#include "minoragg/ledger.hpp"

namespace umc::minoragg {

struct VirtualGraph {
  WeightedGraph graph;
  std::vector<bool> is_virtual;  // per node of `graph`

  [[nodiscard]] int beta() const {
    int b = 0;
    for (const bool f : is_virtual) b += f ? 1 : 0;
    return b;
  }

  /// Adds a fresh virtual node and returns its id.
  NodeId add_virtual_node() {
    const NodeId v = graph.add_node();
    is_virtual.push_back(true);
    return v;
  }

  [[nodiscard]] static VirtualGraph wrap(WeightedGraph g) {
    VirtualGraph vg;
    vg.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
    vg.graph = std::move(g);
    return vg;
  }
};

/// Theorem 14 cost transfer: an algorithm that ran `inner` rounds on a
/// virtual graph with `beta` virtual nodes costs inner * (beta + 1) rounds
/// on the underlying network.
inline void settle_virtual_execution(Ledger& outer, const Ledger& inner, int beta) {
  UMC_ASSERT(beta >= 0);
  outer.charge(inner.rounds() * (beta + 1));
  outer.absorb_counters(inner);
  outer.set_max(CounterId::max_beta, beta);
}

/// Lemma 15: replace node v by a virtual substitute with the same neighbor
/// set; parallel edges toward a common neighbor merge into one edge whose
/// weight is their sum. Charges O(1) rounds (2: one broadcast, one
/// aggregation round).
[[nodiscard]] VirtualGraph virtualize_node(const VirtualGraph& g, NodeId v, Ledger& ledger);

}  // namespace umc::minoragg
