#pragma once

// Deterministic weighted heavy-hitters sketch (Misra-Gries), mergeable per
// Agarwal et al. — the aggregation operator of Example 8.
//
// With capacity h the sketch underestimates any key's frequency by at most
// W/(h+1) (W = total inserted weight). The Example 8 interface
// `heavy_hitters()` therefore returns a list that (1) contains every key x
// with f(x) > 2W/h and (2) contains no key with f(x) <= W/h.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace umc {

class MisraGries {
 public:
  using Key = std::uint64_t;

  struct Item {
    Key key = 0;
    Weight count = 0;  // lower bound on true frequency
  };

  /// Sketch with at most `capacity` counters. Bit size is Õ(capacity).
  explicit MisraGries(int capacity = 8) : capacity_(capacity) {
    UMC_ASSERT(capacity >= 1);
  }

  void add(Key key, Weight w);

  /// Mergeable-summary union: counters added pointwise, then reduced back to
  /// capacity by subtracting the (capacity+1)-st largest counter.
  [[nodiscard]] static MisraGries merge(MisraGries a, const MisraGries& b);

  /// Lower-bound frequency estimate (0 if the key is not tracked).
  [[nodiscard]] Weight estimate(Key key) const;

  /// Total weight ever inserted (exact; needed for the Example 8 filter).
  [[nodiscard]] Weight total_weight() const { return total_; }

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

  /// Example 8 output: keys whose true frequency exceeds 2W/h are all
  /// present; keys with frequency <= W/h are all absent.
  [[nodiscard]] std::vector<Key> heavy_hitters() const;
  /// Same keys, appended to `out`.
  void append_heavy_hitters(std::vector<Key>& out) const;

 private:
  void reduce();

  int capacity_;
  Weight total_ = 0;
  std::vector<Item> items_;  // kept sorted by key for deterministic merging
};

}  // namespace umc
