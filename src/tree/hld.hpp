#pragma once

// Heavy-light decomposition (Definition 2) with the HL-info labeling scheme
// and the Fact 4 LCA-from-labels function.
//
// This is the centralized reference implementation; the deterministic
// Minor-Aggregation construction (Appendix A, Lemma 47 / Theorem 48) lives
// in minoragg/tree_primitives and is tested against this one.

#include <cstdint>
#include <span>
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
/// light edges on its root path. O(log n) entries by Fact 3. A view into
/// the decomposition's light-edge arena, valid while the decomposition is
/// alive and not rebuilt.
struct HlInfo {
  int depth = -1;
  std::span<const LightEdge> light_edges;
};

/// Layout: one per-node record array plus one light-edge arena that holds
/// every node's HL-info list back to back, so a build costs O(1) heap
/// allocations. Hot paths lease one and rebuild() it in place.
class HeavyLightDecomposition {
 public:
  /// An empty decomposition; rebuild() before use (the ScratchLease idiom).
  HeavyLightDecomposition() = default;
  explicit HeavyLightDecomposition(const RootedTree& t) { rebuild(t); }

  /// Recomputes the decomposition of `t`, reusing this object's buffers.
  void rebuild(const RootedTree& t);

  [[nodiscard]] const RootedTree& tree() const { return *t_; }

  /// Heavy/light label per tree edge (Definition 2).
  [[nodiscard]] bool is_heavy(EdgeId e) const;

  /// Number of light edges on the root-to-v path.
  [[nodiscard]] int hl_depth(NodeId v) const { return rec(v).hl_depth; }
  /// HL-depth of a tree edge = HL-depth(bottom(e)).
  [[nodiscard]] int hl_depth_edge(EdgeId e) const { return hl_depth(t_->bottom(e)); }
  [[nodiscard]] int max_hl_depth() const { return max_hl_depth_; }

  [[nodiscard]] HlInfo info(NodeId v) const {
    const NodeRec& r = rec(v);
    return HlInfo{t_->depth(v),
                  std::span<const LightEdge>(light_.data() + r.light_begin,
                                             static_cast<std::size_t>(r.hl_depth))};
  }

  /// The heavy child of v (next node down v's heavy chain), or kNoNode for
  /// a leaf.
  [[nodiscard]] NodeId heavy_child(NodeId v) const { return rec(v).heavy_child; }

  /// Head (top-most node) of the heavy chain containing v.
  [[nodiscard]] NodeId chain_head(NodeId v) const { return rec(v).head; }

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
  struct NodeRec {
    NodeId heavy_child = kNoNode;  // kNoNode for leaves
    NodeId head = kNoNode;
    int hl_depth = 0;
    /// info(v).light_edges = light_[light_begin, light_begin + hl_depth)
    std::int32_t light_begin = 0;
  };
  [[nodiscard]] const NodeRec& rec(NodeId v) const { return node_[static_cast<std::size_t>(v)]; }

  const RootedTree* t_ = nullptr;
  std::vector<NodeRec> node_;
  std::vector<LightEdge> light_;
  int max_hl_depth_ = 0;
};

}  // namespace umc
