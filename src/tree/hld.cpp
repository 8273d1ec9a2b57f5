#include "tree/hld.hpp"

#include <algorithm>

namespace umc {

void HeavyLightDecomposition::rebuild(const RootedTree& t) {
  t_ = &t;
  const NodeId n = t.n();
  node_.assign(static_cast<std::size_t>(n), NodeRec{});
  max_hl_depth_ = 0;

  // Heavy child: the child with the largest subtree (ties by first in child
  // order, matching "breaking ties arbitrarily").
  for (NodeId v = 0; v < n; ++v) {
    NodeId best = kNoNode;
    NodeId best_size = 0;
    for (const NodeId c : t.children(v)) {
      if (t.subtree_size(c) > best_size) {
        best_size = t.subtree_size(c);
        best = c;
      }
    }
    node_[static_cast<std::size_t>(v)].heavy_child = best;
  }

  // Propagate hl-depth / head down the preorder, and lay the HL-info lists
  // out back to back in preorder: v's list is its parent's list plus, for a
  // light parent edge, that edge.
  std::int32_t arena = 0;
  for (const NodeId v : t.preorder()) {
    NodeRec& r = node_[static_cast<std::size_t>(v)];
    const NodeId p = t.parent(v);
    if (p == kNoNode) {
      r.head = v;
    } else {
      const NodeRec& rp = node_[static_cast<std::size_t>(p)];
      const bool heavy = rp.heavy_child == v;
      r.hl_depth = rp.hl_depth + (heavy ? 0 : 1);
      r.head = heavy ? rp.head : v;
    }
    r.light_begin = arena;
    arena += r.hl_depth;
    max_hl_depth_ = std::max(max_hl_depth_, r.hl_depth);
  }
  light_.resize(static_cast<std::size_t>(arena));
  for (const NodeId v : t.preorder()) {
    const NodeId p = t.parent(v);
    if (p == kNoNode) continue;
    const NodeRec& r = node_[static_cast<std::size_t>(v)];
    const NodeRec& rp = node_[static_cast<std::size_t>(p)];
    std::copy_n(light_.begin() + rp.light_begin, rp.hl_depth, light_.begin() + r.light_begin);
    if (r.hl_depth > rp.hl_depth)
      light_[static_cast<std::size_t>(r.light_begin + rp.hl_depth)] =
          LightEdge{p, v, t.depth(p), t.depth(v)};
  }
}

bool HeavyLightDecomposition::is_heavy(EdgeId e) const {
  const NodeId b = t_->bottom(e);
  return heavy_child(t_->parent(b)) == b;
}

EdgeId HeavyLightDecomposition::hl_path_id(EdgeId e) const {
  const NodeId h = chain_head(t_->bottom(e));
  return t_->parent_edge(h);  // kNoEdge for the root chain
}

namespace {
/// The node where x's root path leaves the common heavy chain: top of the
/// first non-common light edge, or x itself if none remains.
struct Divergence {
  NodeId node;
  int depth;
};

Divergence divergence(NodeId x, const HlInfo& ix, std::size_t common_prefix) {
  if (common_prefix < ix.light_edges.size()) {
    const LightEdge& l = ix.light_edges[common_prefix];
    return Divergence{l.top, l.top_depth};
  }
  return Divergence{x, ix.depth};
}
}  // namespace

NodeId HeavyLightDecomposition::lca_from_info(NodeId u, const HlInfo& iu, NodeId v,
                                              const HlInfo& iv) {
  std::size_t k = 0;
  const std::size_t limit = std::min(iu.light_edges.size(), iv.light_edges.size());
  while (k < limit && iu.light_edges[k] == iv.light_edges[k]) ++k;
  const Divergence du = divergence(u, iu, k);
  const Divergence dv = divergence(v, iv, k);
  // Both divergence points lie on the same descending heavy chain; the
  // shallower one is the LCA.
  return du.depth <= dv.depth ? du.node : dv.node;
}

int HeavyLightDecomposition::lca_depth_from_info(const HlInfo& iu, const HlInfo& iv) {
  std::size_t k = 0;
  const std::size_t limit = std::min(iu.light_edges.size(), iv.light_edges.size());
  while (k < limit && iu.light_edges[k] == iv.light_edges[k]) ++k;
  const int depth_u = k < iu.light_edges.size() ? iu.light_edges[k].top_depth : iu.depth;
  const int depth_v = k < iv.light_edges.size() ? iv.light_edges[k].top_depth : iv.depth;
  return std::min(depth_u, depth_v);
}

}  // namespace umc
