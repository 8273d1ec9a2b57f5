#pragma once

// Path-to-path 2-respecting min-cut (Section 6, Theorem 19).
//
// The instance is a root plus two descending paths P and Q (Figure 1). The
// algorithm finds min Cut(e, f) over candidate pairs e ∈ E(P), f ∈ E(Q):
//   * base case (one path has <= 10 edges): scan each edge of the shorter
//     path with the fixed-edge cover routine (Lemma 21);
//   * separable instances (no cross-path edge avoids the five boundary
//     nodes): Cut(e,f) = F_P(e) + F_Q(f) on interior pairs (Lemma 22) plus
//     two boundary-row scans;
//   * otherwise: midpoint e_a of P, best CANDIDATE response f_b, Monge
//     recursion on cut-equivalent private graphs G_up / G_down built with
//     virtual boundary nodes (Lemma 23; Facts 24/25). The two recursive
//     calls are node-disjoint and run simultaneously (Corollary 11), and
//     virtual nodes are eliminated before returning, so no simulation
//     cascade arises (the ledger multiplies only each call's LOCAL rounds
//     by its own O(1) virtual-node count, Theorem 14).

#include <vector>

#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"

namespace umc::mincut {

/// A Figure 1 instance. Tree edges are edgesP ∪ edgesQ, where edgesX[i]
/// connects (i == 0 ? root : nodesX[i-1]) to nodesX[i]; candidates carry an
/// origin. The graph must contain no nodes besides root ∪ P ∪ Q — callers
/// map external regions into boundary/virtual nodes first.
struct PathInstance : InstanceCore {
  std::vector<NodeId> nodesP, nodesQ;  // top (child of root) → bottom
  std::vector<EdgeId> edgesP, edgesQ;
};

/// min over candidate pairs (e ∈ P) × (f ∈ Q) of Cut(e, f), together with
/// the 1-respecting minimum over candidate tree edges of the instance.
/// Cut(e) comes from inst.cut, which the G_up / G_down recursion carries.
[[nodiscard]] CutResult path_to_path_mincut(const PathInstance& inst, minoragg::Ledger& ledger);

}  // namespace umc::mincut
