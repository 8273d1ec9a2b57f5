#pragma once

// Disjoint-set union (union by size + path halving).
//
// Used pervasively: supernode identification after Minor-Aggregation
// contractions, Kruskal spanning trees, Karger contraction, minor building.

#include <numeric>
#include <vector>

#include "graph/graph.hpp"

namespace umc {

class Dsu {
 public:
  Dsu() = default;
  explicit Dsu(NodeId n) { reset(n); }

  /// Back to n singletons, reusing the rows' capacity.
  void reset(NodeId n) {
    parent_.resize(static_cast<std::size_t>(n));
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
    size_.assign(static_cast<std::size_t>(n), 1);
    components_ = 0;
  }

  [[nodiscard]] NodeId find(NodeId x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  /// Returns true iff x and y were in different components.
  bool unite(NodeId x, NodeId y) {
    x = find(x);
    y = find(y);
    if (x == y) return false;
    if (size_[static_cast<std::size_t>(x)] < size_[static_cast<std::size_t>(y)]) std::swap(x, y);
    parent_[static_cast<std::size_t>(y)] = x;
    size_[static_cast<std::size_t>(x)] += size_[static_cast<std::size_t>(y)];
    --components_;
    return true;
  }

  [[nodiscard]] bool same(NodeId x, NodeId y) { return find(x) == find(y); }
  [[nodiscard]] NodeId component_size(NodeId x) { return size_[static_cast<std::size_t>(find(x))]; }

  [[nodiscard]] NodeId num_components() const {
    return static_cast<NodeId>(parent_.size()) + components_;
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
  NodeId components_ = 0;  // delta vs. n: decremented on every merge
};

}  // namespace umc
