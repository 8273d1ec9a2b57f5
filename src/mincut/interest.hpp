#pragma once

// Star instances and path-interest machinery (Section 7.1-7.2).
//
// A star instance (Definition 26, Figure 2) is a root plus k disjoint
// descending paths. The interest machinery locates, for each path, the
// O(log n) other paths that can share an optimal 2-respecting pair with it
// (Lemmas 28 & 30), using deterministic heavy-hitter sketches folded along
// each path (Lemma 32) — cross-edges only, so no sketch deletions are ever
// needed.

#include <cstdint>
#include <span>
#include <vector>

#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"

namespace umc::mincut {

struct StarInstance : InstanceCore {
  /// path_nodes[i] lists path i top (child of root) → bottom;
  /// path_edges[i][j] connects (j == 0 ? root : path_nodes[i][j-1]) to
  /// path_nodes[i][j].
  std::vector<std::vector<NodeId>> path_nodes;
  std::vector<std::vector<EdgeId>> path_edges;
  /// path_chain[i]: the HL-chain of the enclosing between-subtree instance
  /// that path i came from, in increasing order; empty for a star built by
  /// hand (which disables pair replay).
  std::vector<int> path_chain;

  [[nodiscard]] int k() const { return static_cast<int>(path_nodes.size()); }
};

/// Which path each node belongs to (-1 for the root), into a caller-owned
/// row (overwritten); bookkeeping.
void path_of_node(const StarInstance& inst, std::vector<int>& of);

/// Per-path rows of path ids in one flat layout: row i is
/// ids[offsets[i], offsets[i+1]). Rebuilt in place, so a leased one does not
/// allocate.
struct PathRows {
  std::vector<std::int32_t> offsets;  // size() + 1
  std::vector<int> ids;

  [[nodiscard]] std::size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  [[nodiscard]] std::span<const int> operator[](std::size_t i) const {
    return {ids.data() + offsets[i], ids.data() + offsets[i + 1]};
  }
};

/// Lemma 32: per path, the ids of paths it is interested in, sorted —
/// contains every strongly (1/2-) interested path, only weakly (1/5-)
/// interested ones. Built from Misra-Gries sketches (Example 8)
/// suffix-folded along each path (all paths in parallel), plus one union
/// round. Rebuilds `lists`.
void interest_lists(const StarInstance& inst, minoragg::Ledger& ledger, PathRows& lists);

/// Definition 33: the mutual-interest graph over path indices, as sorted
/// adjacency rows, rebuilt into `adj`.
void interest_graph(const PathRows& lists, PathRows& adj);

}  // namespace umc::mincut
