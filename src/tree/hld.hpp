#pragma once

// Heavy-light decomposition (Definition 2) with the HL-info labeling scheme
// and the Fact 4 LCA-from-labels function.
//
// This is the centralized reference implementation; the deterministic
// Minor-Aggregation construction (Appendix A, Lemma 47 / Theorem 48) lives
// in minoragg/tree_primitives and is tested against this one.

#include <vector>

#include "tree/rooted_tree.hpp"

namespace umc {

/// One light edge on a root-to-v path, as stored in HL-info: T-depth and id
/// of both endpoints (Section 3.1, "HL-info").
struct LightEdge {
  NodeId top = kNoNode;
  NodeId bottom = kNoNode;
  int top_depth = -1;
  int bottom_depth = -1;

  friend bool operator==(const LightEdge&, const LightEdge&) = default;
};

/// The HL-info of a node: its T-depth plus the ordered (by depth) list of
/// light edges on its root path. O(log n) entries by Fact 3.
struct HlInfo {
  int depth = -1;
  std::vector<LightEdge> light_edges;
};

class HeavyLightDecomposition {
 public:
  explicit HeavyLightDecomposition(const RootedTree& t);

  [[nodiscard]] const RootedTree& tree() const { return *t_; }

  /// Heavy/light label per tree edge (Definition 2).
  [[nodiscard]] bool is_heavy(EdgeId e) const;

  /// Number of light edges on the root-to-v path.
  [[nodiscard]] int hl_depth(NodeId v) const { return hl_depth_[static_cast<std::size_t>(v)]; }
  /// HL-depth of a tree edge = HL-depth(bottom(e)).
  [[nodiscard]] int hl_depth_edge(EdgeId e) const { return hl_depth(t_->bottom(e)); }
  [[nodiscard]] int max_hl_depth() const { return max_hl_depth_; }

  [[nodiscard]] const HlInfo& info(NodeId v) const { return info_[static_cast<std::size_t>(v)]; }

  /// The heavy child of v (next node down v's heavy chain), or kNoNode for
  /// a leaf.
  [[nodiscard]] NodeId heavy_child(NodeId v) const {
    return heavy_child_[static_cast<std::size_t>(v)];
  }

  /// Head (top-most node) of the heavy chain containing v.
  [[nodiscard]] NodeId chain_head(NodeId v) const { return head_[static_cast<std::size_t>(v)]; }

  /// Identifier of the HL-path containing tree edge e: the id of its
  /// top-most light edge, or kNoEdge for the root heavy chain.
  [[nodiscard]] EdgeId hl_path_id(EdgeId e) const;

  /// Fact 4: LCA of u and v computed ONLY from (id, HL-info) pairs. The
  /// implementation never touches the tree; tests verify it against the
  /// binary-lifting oracle.
  [[nodiscard]] static NodeId lca_from_info(NodeId u, const HlInfo& iu, NodeId v,
                                            const HlInfo& iv);

  /// Depth of lca_from_info's result, from labels only.
  [[nodiscard]] static int lca_depth_from_info(const HlInfo& iu, const HlInfo& iv);

 private:
  const RootedTree* t_;
  std::vector<NodeId> heavy_child_;  // kNoNode for leaves
  std::vector<int> hl_depth_;
  std::vector<NodeId> head_;
  std::vector<HlInfo> info_;
  int max_hl_depth_ = 0;
};

}  // namespace umc
