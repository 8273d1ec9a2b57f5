#include "mincut/path_to_path.hpp"

#include <algorithm>
#include <array>

#include "mincut/one_respect.hpp"
#include "minoragg/path_sums.hpp"
#include "minoragg/virtual_graph.hpp"
#include "obs/trace.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

enum class Side : char { kRoot, kP, kQ };

/// Per-node location within the instance: which path, and the index on it.
struct Layout {
  std::vector<Side> side;
  std::vector<int> pos;  // index in nodesP / nodesQ; -1 for the root
};

void classify_into(const PathInstance& inst, Layout& lay) {
  lay.side.assign(static_cast<std::size_t>(inst.graph.n()), Side::kRoot);
  lay.pos.assign(static_cast<std::size_t>(inst.graph.n()), -1);
  UMC_ASSERT_MSG(static_cast<NodeId>(inst.nodesP.size() + inst.nodesQ.size()) + 1 ==
                     inst.graph.n(),
                 "a path instance contains only root + P + Q nodes");
  for (std::size_t i = 0; i < inst.nodesP.size(); ++i) {
    lay.side[static_cast<std::size_t>(inst.nodesP[i])] = Side::kP;
    lay.pos[static_cast<std::size_t>(inst.nodesP[i])] = static_cast<int>(i);
  }
  for (std::size_t j = 0; j < inst.nodesQ.size(); ++j) {
    lay.side[static_cast<std::size_t>(inst.nodesQ[j])] = Side::kQ;
    lay.pos[static_cast<std::size_t>(inst.nodesQ[j])] = static_cast<int>(j);
  }
}

/// Lemma 21: with e_fix = (fixed_on_p ? edgesP : edgesQ)[idx], returns
/// Cov(e_fix, f_j) for every edge index j of the OTHER path: one labeling
/// round (each cross edge below the fixed edge labels its other endpoint)
/// plus a suffix sum along the other path.
void cov_row_into(const PathInstance& inst, const Layout& lay, bool fixed_on_p,
                  std::size_t idx, minoragg::Ledger& ledger, std::vector<Weight>& cov) {
  const Side below_side = fixed_on_p ? Side::kP : Side::kQ;
  const Side other_side = fixed_on_p ? Side::kQ : Side::kP;
  const std::size_t other_len = fixed_on_p ? inst.nodesQ.size() : inst.nodesP.size();

  // Labels go straight into `cov` (caller-leased) and fold into their
  // suffix sums in place.
  cov.assign(other_len, 0);
  ledger.charge(1);
  for (const Edge& e : inst.graph.edges()) {
    for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
      // a below the fixed edge on its path, b on the other path.
      if (lay.side[static_cast<std::size_t>(a)] != below_side) continue;
      if (static_cast<std::size_t>(lay.pos[static_cast<std::size_t>(a)]) < idx) continue;
      if (lay.side[static_cast<std::size_t>(b)] != other_side) continue;
      cov[static_cast<std::size_t>(lay.pos[static_cast<std::size_t>(b)])] += e.w;
    }
  }
  minoragg::path_suffix_sums_in_place<SumAgg>(cov, ledger);
}

struct RowScan {
  CutResult best;                       // best candidate pair in this row
  std::ptrdiff_t argmin_candidate = -1; // steering split: candidate argmin index
};

/// Fixes one edge and evaluates Cut(e_fix, f_j) = Cut(e_fix) + Cut(f_j) −
/// 2·Cov(e_fix, f_j) over the other path, with Cut read off inst.cut.
RowScan scan_row(const PathInstance& inst, const Layout& lay, bool fixed_on_p, std::size_t idx,
                 minoragg::Ledger& ledger) {
  const auto& fixed_edges = fixed_on_p ? inst.edgesP : inst.edgesQ;
  const auto& other_edges = fixed_on_p ? inst.edgesQ : inst.edgesP;
  const EdgeId e_fix = fixed_edges[idx];
  ScratchLease<std::vector<Weight>> cov_s;
  cov_row_into(inst, lay, fixed_on_p, idx, ledger, *cov_s);
  const std::vector<Weight>& cov = *cov_s;
  ledger.charge(1);  // min-aggregation broadcast of the row result

  RowScan out;
  Weight arg_best = kInfWeight;
  for (std::size_t j = 0; j < other_edges.size(); ++j) {
    const EdgeId f = other_edges[j];
    const Weight cut = inst.cut[static_cast<std::size_t>(e_fix)] +
                       inst.cut[static_cast<std::size_t>(f)] - 2 * cov[j];
    const bool f_cand = inst.origin[static_cast<std::size_t>(f)] != kNoEdge;
    if (f_cand && cut < arg_best) {
      arg_best = cut;
      out.argmin_candidate = static_cast<std::ptrdiff_t>(j);
    }
    if (f_cand && inst.origin[static_cast<std::size_t>(e_fix)] != kNoEdge) {
      out.best.absorb(CutResult{cut, inst.origin[static_cast<std::size_t>(e_fix)],
                                inst.origin[static_cast<std::size_t>(f)]});
    }
  }
  return out;
}

bool has_candidate(const PathInstance& inst, const std::vector<EdgeId>& edges) {
  return std::any_of(edges.begin(), edges.end(), [&inst](EdgeId e) {
    return inst.origin[static_cast<std::size_t>(e)] != kNoEdge;
  });
}

/// Definition in Section 6: separable iff every cross-path edge touches one
/// of {root, top(P), bottom(P), top(Q), bottom(Q)}.
bool is_separable(const PathInstance& inst, const Layout& lay) {
  const auto is_boundary = [&](NodeId v) {
    const int p = lay.pos[static_cast<std::size_t>(v)];
    const std::size_t len = lay.side[static_cast<std::size_t>(v)] == Side::kP
                                ? inst.nodesP.size()
                                : inst.nodesQ.size();
    return p == 0 || p == static_cast<int>(len) - 1;
  };
  for (const Edge& e : inst.graph.edges()) {
    const Side su = lay.side[static_cast<std::size_t>(e.u)];
    const Side sv = lay.side[static_cast<std::size_t>(e.v)];
    if (su == Side::kRoot || sv == Side::kRoot || su == sv) continue;  // not cross-path
    if (!is_boundary(e.u) && !is_boundary(e.v)) return false;
  }
  return true;
}

/// Lemma 22 (separable): interior pairs decompose as F_P(e) + F_Q(f); the
/// e_1 row and f_1 column (where top-incident cross edges break the
/// decomposition) are scanned directly.
CutResult solve_separable(const PathInstance& inst, const Layout& lay,
                          minoragg::Ledger& ledger) {
  CutResult best;
  best.absorb(scan_row(inst, lay, true, 0, ledger).best);
  best.absorb(scan_row(inst, lay, false, 0, ledger).best);

  const NodeId bottom_p = inst.nodesP.back();
  const NodeId bottom_q = inst.nodesQ.back();
  // CQ[j] (suffix): cross edges {bottom(P), x ∈ Q} cover every e and cover
  // f_j iff j <= pos(x). CP symmetric, with the {bottom(P), bottom(Q)} edge
  // assigned to CQ only (it covers every pair exactly once).
  ScratchLease<std::vector<std::int64_t>> cq_s, cp_s;
  std::vector<std::int64_t>& cq = *cq_s;
  std::vector<std::int64_t>& cp = *cp_s;
  cq.assign(inst.nodesQ.size(), 0);
  cp.assign(inst.nodesP.size(), 0);
  ledger.charge(1);
  for (const Edge& e : inst.graph.edges()) {
    for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
      if (a == bottom_p && lay.side[static_cast<std::size_t>(b)] == Side::kQ) {
        cq[static_cast<std::size_t>(lay.pos[static_cast<std::size_t>(b)])] += e.w;
        break;  // counted once
      }
      if (a == bottom_q && lay.side[static_cast<std::size_t>(b)] == Side::kP &&
          b != bottom_p) {
        cp[static_cast<std::size_t>(lay.pos[static_cast<std::size_t>(b)])] += e.w;
        break;
      }
    }
  }
  minoragg::path_suffix_sums_in_place<SumAgg>(cq, ledger);
  minoragg::path_suffix_sums_in_place<SumAgg>(cp, ledger);
  const std::vector<std::int64_t>& cq_suffix = cq;
  const std::vector<std::int64_t>& cp_suffix = cp;

  // Interior minimization: min F_P + min F_Q over candidates with index >= 1.
  const auto interior_min = [&](const std::vector<EdgeId>& edges,
                                const std::vector<std::int64_t>& csuffix) {
    std::pair<Weight, EdgeId> best_side{kInfWeight, kNoEdge};
    for (std::size_t i = 1; i < edges.size(); ++i) {
      const EdgeId e = edges[i];
      if (inst.origin[static_cast<std::size_t>(e)] == kNoEdge) continue;
      const Weight f = inst.cut[static_cast<std::size_t>(e)] - 2 * csuffix[i];
      if (f < best_side.first) best_side = {f, inst.origin[static_cast<std::size_t>(e)]};
    }
    return best_side;
  };
  ledger.charge(1);  // two parallel min-aggregations + broadcast
  const auto [fp, ep] = interior_min(inst.edgesP, cp_suffix);
  const auto [fq, eq] = interior_min(inst.edgesQ, cq_suffix);
  if (ep != kNoEdge && eq != kNoEdge) best.absorb(CutResult{fp + fq, ep, eq});
  return best;
}

/// Which of the two Lemma 23 sub-instances exist.
struct SubInstances {
  bool up = false, down = false;
};

/// Builds the cut-equivalent private graphs of Lemma 23, step 5/6, into `up`
/// and `down` (rebuilt in place), by absorbing each discarded region into
/// its boundary node: everything below the midpoint/best-response edges
/// collapses into the (virtualized) bottom nodes of P_up/Q_up for G_up;
/// everything above collapses into a fresh virtual root for G_down. Both
/// keep their real tree edges' Cut values. G_down's connector {r_down, top}
/// is a tree edge the parent lacks: the boundary edge e_a (f_b) it replaces
/// stays behind as a plain edge parallel to it, so the connector's Cut is
/// the parent's Cut(e_a) plus its own weight, and e_a's entry drops to 0.
SubInstances build_sub_instances(const PathInstance& inst, std::size_t a, std::size_t b,
                                 minoragg::Ledger& ledger, PathInstance& up,
                                 PathInstance& down) {
  SubInstances out;
  const std::size_t np = inst.edgesP.size(), nq = inst.edgesQ.size();
  ledger.charge(4);  // Lemma 15 virtualizations + distributed storage setup

  ScratchLease<std::vector<NodeId>> map_s;
  ScratchLease<std::vector<EdgeId>> edge_map_s;
  std::vector<NodeId>& map = *map_s;
  std::vector<EdgeId>& edge_map = *edge_map_s;
  // Appends source path edges [first, last) to a sub-instance path whose
  // nodes (each edge's bottom) are numbered from `id` on.
  const auto append = [&edge_map](const std::vector<EdgeId>& src, std::size_t first,
                                  std::size_t last, std::size_t id, std::vector<NodeId>& nodes,
                                  std::vector<EdgeId>& edges) {
    for (std::size_t i = first; i < last; ++i) {
      nodes.push_back(static_cast<NodeId>(id + (i - first)));
      edges.push_back(edge_map[static_cast<std::size_t>(src[i])]);
    }
  };
  if (a >= 1 && b >= 1) {
    // G_up: new ids: root=0, P_up -> 1..a, Q_up -> a+1..a+b.
    map.assign(static_cast<std::size_t>(inst.graph.n()), 0);  // the root
    for (std::size_t i = 0; i < np; ++i)
      map[static_cast<std::size_t>(inst.nodesP[i])] =
          static_cast<NodeId>(1 + std::min(i, a - 1));
    for (std::size_t j = 0; j < nq; ++j)
      map[static_cast<std::size_t>(inst.nodesQ[j])] =
          static_cast<NodeId>(1 + a + std::min(j, b - 1));
    build_sub_instance(inst, map, static_cast<NodeId>(1 + a + b), up, edge_map);
    up.is_virtual[0] = true;                                  // boundary root
    up.is_virtual[static_cast<std::size_t>(a)] = true;        // p_{-1}
    up.is_virtual[static_cast<std::size_t>(a + b)] = true;    // q_{-1}
    up.nodesP.clear();
    up.edgesP.clear();
    up.nodesQ.clear();
    up.edgesQ.clear();
    append(inst.edgesP, 0, a, 1, up.nodesP, up.edgesP);
    append(inst.edgesQ, 0, b, 1 + a, up.nodesQ, up.edgesQ);
    out.up = true;
  }

  if (a + 1 < np && b + 1 < nq) {
    // G_down: new ids: r_down=0, P nodes a.. -> 1.., Q nodes b.. -> after.
    const std::size_t lp = np - a;  // kept P nodes (nodesP[a..])
    const std::size_t lq = nq - b;
    map.assign(static_cast<std::size_t>(inst.graph.n()), 0);  // external -> r_down
    for (std::size_t i = a; i < np; ++i)
      map[static_cast<std::size_t>(inst.nodesP[i])] = static_cast<NodeId>(1 + (i - a));
    for (std::size_t j = b; j < nq; ++j)
      map[static_cast<std::size_t>(inst.nodesQ[j])] = static_cast<NodeId>(1 + lp + (j - b));
    // Synthetic connectors {r_down, top}: tree edges, never candidates.
    const Edge connectors[2] = {Edge{0, 1, 1}, Edge{0, static_cast<NodeId>(1 + lp), 1}};
    build_sub_instance(inst, map, static_cast<NodeId>(1 + lp + lq), down, edge_map, connectors);
    down.is_virtual[0] = true;  // r_down
    const EdgeId first_connector = down.graph.m() - 2;
    for (int side = 0; side < 2; ++side) {
      const auto boundary = static_cast<std::size_t>(side == 0 ? inst.edgesP[a] : inst.edgesQ[b]);
      const EdgeId kept = edge_map[boundary];
      UMC_ASSERT_MSG(kept != kNoEdge, "the boundary edge spans r_down and its path's top");
      down.cut[static_cast<std::size_t>(first_connector + side)] =
          inst.cut[boundary] + connectors[side].w;
      down.cut[static_cast<std::size_t>(kept)] = 0;
    }
    down.nodesP.assign(1, 1);
    down.edgesP.assign(1, first_connector);
    down.nodesQ.assign(1, static_cast<NodeId>(1 + lp));
    down.edgesQ.assign(1, first_connector + 1);
    append(inst.edgesP, a + 1, np, 2, down.nodesP, down.edgesP);
    append(inst.edgesQ, b + 1, nq, 2 + lp, down.nodesQ, down.edgesQ);
    out.down = true;
  }
  return out;
}

/// `source` names where the instance came from: a star's pair instance at
/// depth 1, Lemma 23's G_up / G_down below.
CutResult solve(const PathInstance& inst, minoragg::Ledger& parent, int depth,
                CutRowSource source) {
  UMC_ASSERT(!inst.edgesP.empty() && !inst.edgesQ.empty());
  // Logical clock: the path-to-path halving depth.
  UMC_OBS_SPAN_VAR_L(obs_solve, "mincut/p2p_solve", "mincut", depth);
  obs_solve.arg("np", static_cast<std::int64_t>(inst.edgesP.size()));
  obs_solve.arg("nq", static_cast<std::int64_t>(inst.edgesQ.size()));
  minoragg::Ledger local;
  local.set_max(minoragg::CounterId::max_p2p_depth, depth);

  // HL construction (Lemma 47) and 1-respecting cuts (Theorem 18) off the
  // carried row, with no tree built: the instance is a two-leg spider, and
  // its canonical numbering makes the Lemma 47 charge a function of
  // (|P|, |Q|).
  const std::array<SpiderLeg, 2> legs{SpiderLeg{inst.nodesP, inst.edgesP},
                                      SpiderLeg{inst.nodesQ, inst.edgesQ}};
  UMC_ASSERT_MSG(canonical_path_pair(inst.root, legs),
                 "path instances number root 0, then P, then Q");
  CutResult best = carried_spider_cuts(source, inst, legs, local);
  ScratchLease<Layout> lay_s;
  classify_into(inst, *lay_s);
  const Layout& lay = *lay_s;
  const std::size_t np = inst.edgesP.size(), nq = inst.edgesQ.size();

  if (!has_candidate(inst, inst.edgesP) || !has_candidate(inst, inst.edgesQ)) {
    // No candidate pair exists; only the 1-respecting minimum matters.
    minoragg::settle_virtual_execution(parent, local, inst.beta());
    return best;
  }

  if (std::min(np, nq) <= 10) {
    // Base case: exhaustively scan every edge of the shorter path.
    const bool scan_p = np <= nq;
    const std::size_t len = scan_p ? np : nq;
    for (std::size_t i = 0; i < len; ++i)
      best.absorb(scan_row(inst, lay, scan_p, i, local).best);
    minoragg::settle_virtual_execution(parent, local, inst.beta());
    return best;
  }

  if (is_separable(inst, lay)) {
    best.absorb(solve_separable(inst, lay, local));
    minoragg::settle_virtual_execution(parent, local, inst.beta());
    return best;
  }

  // Lemma 23: midpoint + best candidate response, then Monge recursion.
  const std::size_t a = np / 2;
  const RowScan row_a = scan_row(inst, lay, true, a, local);
  best.absorb(row_a.best);
  UMC_ASSERT(row_a.argmin_candidate >= 0);  // Q has a candidate
  const std::size_t b = static_cast<std::size_t>(row_a.argmin_candidate);
  best.absorb(scan_row(inst, lay, false, b, local).best);

  ScratchLease<PathInstance> up_s, down_s;
  const SubInstances subs = build_sub_instances(inst, a, b, local, *up_s, *down_s);
  minoragg::settle_virtual_execution(parent, local, inst.beta());

  // The recursive calls are node-disjoint: run both as tasks, then merge
  // up-before-down — the same absorb and charge_parallel order as the
  // inline recursion, so counters stay bit-identical at any width.
  CutResult up_best, down_best;
  minoragg::Ledger up_ledger, down_ledger;
  {
    TaskGroup halves;
    if (subs.up) {
      const PathInstance& up = *up_s;
      halves.spawn([&up, &up_best, &up_ledger, depth] {
        // Two args max per TraceEvent: kind + pool_thread (depth is the
        // logical clock; up vs down is visible from span nesting order).
        UMC_OBS_SPAN_VAR_L(obs_item, "mincut/ttr_item", "mincut", depth);
        obs_item.arg("kind", 3);  // 3 = path-to-path Monge half
        obs_item.arg("pool_thread", ThreadPool::current_index());
        up_best = solve(up, up_ledger, depth + 1, CutRowSource::kUp);
      });
    }
    if (subs.down) {
      const PathInstance& down = *down_s;
      halves.spawn([&down, &down_best, &down_ledger, depth] {
        UMC_OBS_SPAN_VAR_L(obs_item, "mincut/ttr_item", "mincut", depth);
        obs_item.arg("kind", 3);
        obs_item.arg("pool_thread", ThreadPool::current_index());
        down_best = solve(down, down_ledger, depth + 1, CutRowSource::kDown);
      });
    }
    halves.join();
  }
  ScratchLease<std::vector<minoragg::Ledger>> kids_s;
  std::vector<minoragg::Ledger>& kids = *kids_s;
  kids.clear();
  if (subs.up) {
    best.absorb(up_best);
    kids.push_back(std::move(up_ledger));
  }
  if (subs.down) {
    best.absorb(down_best);
    kids.push_back(std::move(down_ledger));
  }
  parent.charge_parallel(kids);
  return best;
}

}  // namespace

CutResult path_to_path_mincut(const PathInstance& inst, minoragg::Ledger& ledger) {
  return solve(inst, ledger, 1, CutRowSource::kPair);
}

}  // namespace umc::mincut
