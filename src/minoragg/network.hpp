#pragma once

// The Minor-Aggregation model simulator (Definition 9).
//
// A Network wraps a communication graph and executes rounds consisting of
// the three model steps:
//   1. Contraction — each edge picks contract/keep; contracting defines the
//      minor G' whose supernodes are the contracted components.
//   2. Consensus — each node contributes x_v; every node of supernode s
//      learns y_s = ⊕_{v∈s} x_v.
//   3. Aggregation — each non-self-loop edge of G', knowing y of both its
//      supernode endpoints, chooses a value for each endpoint; every node of
//      supernode s learns ⊗ of its incident edges' values.
//
// Folds use a deterministic order (increasing node/edge id) so runs are
// reproducible; all shipped aggregators are either order-independent or
// mergeable sketches whose guarantees are order-independent (Def. 7).
//
// Execution is delegated to a per-network RoundEngine (round_engine.hpp):
// repeated contraction patterns replay a cached plan, folds reuse scratch
// arenas, and large rounds fold chunk-parallel — bit-identically to the
// sequential reference at any thread count. Engine use changes wall time
// only; the Ledger round accounting is identical.
//
// Algorithm code must communicate ONLY through rounds; per-node/per-edge
// closures may read node-local inputs and prior round outputs. Edge-value
// callbacks must be pure functions of (edge id, y_u, y_v): they are invoked
// exactly once per surviving minor edge, possibly concurrently.

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "minoragg/ledger.hpp"
#include "minoragg/round_engine.hpp"
#include "obs/trace.hpp"
#include "sketch/aggregators.hpp"

namespace umc::minoragg {

class Network {
 public:
  /// The caller keeps `g` alive for the Network's lifetime. Rounds charge
  /// to `ledger`.
  Network(const WeightedGraph& g, Ledger& ledger) : g_(&g), ledger_(&ledger), engine_(g) {}

  [[nodiscard]] const WeightedGraph& graph() const { return *g_; }
  [[nodiscard]] Ledger& ledger() { return *ledger_; }

  /// The round-execution engine (plan cache + scratch). Exposed for thread
  /// configuration and cache statistics; wall-time machinery only.
  [[nodiscard]] RoundEngine& engine() const { return engine_; }
  void set_threads(int t) const { engine_.set_threads(t); }

  /// One full Definition 9 round.
  ///
  /// `contract[e]`  — the contraction choice c_e of edge e.
  /// `node_input`   — x_v per node (consensus step).
  /// `edge_values`  — z-choice of each surviving minor edge: given the host
  ///                  edge id and the consensus values (y_u_side, y_v_side)
  ///                  of the supernodes containing edge.u / edge.v, returns
  ///                  {z_for_u_side, z_for_v_side}. Any callable; invoked
  ///                  without indirection in the hot loop.
  template <Aggregator CAgg, Aggregator XAgg, typename EdgeFn>
  RoundResult<typename CAgg::value_type, typename XAgg::value_type> round(
      const std::vector<bool>& contract, std::span<const typename CAgg::value_type> node_input,
      EdgeFn&& edge_values) const {
    const WeightedGraph& g = *g_;
    UMC_ASSERT(static_cast<EdgeId>(contract.size()) == g.m());
    UMC_ASSERT(static_cast<NodeId>(node_input.size()) == g.n());
    // Logical clock: the MA round number this round will be charged as.
    UMC_OBS_SPAN_VAR_L(obs_round, "ma/round", "ma", ledger_->rounds());
    obs_round.arg("n", g.n());
    const RoundPlan& plan = engine_.plan(contract);
    obs_round.arg("minor_edges", static_cast<std::int64_t>(plan.edges.size()));
    auto out = engine_.execute<CAgg, XAgg>(plan, node_input, std::forward<EdgeFn>(edge_values));
    ledger_->charge(1);
    return out;
  }

  // ---- Common one-round idioms -------------------------------------------

  /// Contract ALL edges and aggregate everyone's input: each node learns
  /// ⊕_v x_v. One round. Requires a connected graph.
  template <Aggregator CAgg>
  typename CAgg::value_type all_aggregate(
      std::span<const typename CAgg::value_type> node_input) const;

  /// Per-component aggregate, where components are induced by `in_part`
  /// edges: each node learns the aggregate over its part. One round.
  template <Aggregator CAgg>
  std::vector<typename CAgg::value_type> part_aggregate(
      const std::vector<bool>& in_part,
      std::span<const typename CAgg::value_type> node_input) const;

  /// One aggregation-only round: every node learns ⊗ over its incident
  /// edges of z-values computed edge-locally (no contraction). Folded
  /// directly, bypassing the engine's plan cache; `edge_values(e)` runs
  /// once per edge, in ascending id order, on the calling thread. The
  /// result goes into `out` (overwritten).
  template <Aggregator XAgg, typename EdgeFn>
  void neighborhood_aggregate(EdgeFn&& edge_values,
                              std::vector<typename XAgg::value_type>& out) const;

  /// Supernode ids (smallest contained node id) for a contraction choice;
  /// free of charge (bookkeeping shared by round()).
  [[nodiscard]] std::vector<NodeId> supernodes(const std::vector<bool>& contract) const;

 private:
  const WeightedGraph* g_;
  Ledger* ledger_;
  // The engine is a wall-time cache with no model-visible state, so const
  // rounds may mutate it.
  mutable RoundEngine engine_;
};

// ---- template implementations ---------------------------------------------

template <Aggregator CAgg>
typename CAgg::value_type Network::all_aggregate(
    std::span<const typename CAgg::value_type> node_input) const {
  using Y = typename CAgg::value_type;
  const std::vector<bool> contract(static_cast<std::size_t>(g_->m()), true);
  const auto res = round<CAgg, OrAgg>(
      contract, node_input, [](EdgeId, const Y&, const Y&) {
        return std::pair<std::uint8_t, std::uint8_t>{0, 0};
      });
  // Connectivity check: a single supernode means everyone saw every input.
  for (const NodeId s : res.supernode)
    UMC_ASSERT_MSG(s == res.supernode[0], "all_aggregate requires a connected graph");
  return res.consensus.empty() ? CAgg::identity() : res.consensus[0];
}

template <Aggregator CAgg>
std::vector<typename CAgg::value_type> Network::part_aggregate(
    const std::vector<bool>& in_part,
    std::span<const typename CAgg::value_type> node_input) const {
  using Y = typename CAgg::value_type;
  const auto res = round<CAgg, OrAgg>(
      in_part, node_input, [](EdgeId, const Y&, const Y&) {
        return std::pair<std::uint8_t, std::uint8_t>{0, 0};
      });
  return res.consensus;
}

template <Aggregator XAgg, typename EdgeFn>
void Network::neighborhood_aggregate(EdgeFn&& edge_values,
                                     std::vector<typename XAgg::value_type>& out) const {
  using Z = typename XAgg::value_type;
  // With no contraction every node is its own supernode and, graphs holding
  // no self-loops, every edge survives: the plan is the identity. So the
  // round folds incident edges directly, in the engine's reference order
  // (ascending edge id, u side before v side), with no plan to build or
  // cache. Same result and the same single charged round as round().
  const WeightedGraph& g = *g_;
  UMC_OBS_SPAN_VAR_L(obs_round, "ma/round", "ma", ledger_->rounds());
  obs_round.arg("n", g.n());
  obs_round.arg("minor_edges", g.m());
  out.assign(static_cast<std::size_t>(g.n()), XAgg::identity());
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    auto [zu, zv] = edge_values(e);
    Z& au = out[static_cast<std::size_t>(ed.u)];
    au = XAgg::merge(std::move(au), std::move(zu));
    Z& av = out[static_cast<std::size_t>(ed.v)];
    av = XAgg::merge(std::move(av), std::move(zv));
  }
  ledger_->charge(1);
}

}  // namespace umc::minoragg
