#pragma once

// Deterministic weighted heavy-hitters sketch (Misra-Gries), mergeable per
// Agarwal et al. — the aggregation operator of Example 8.
//
// With capacity h the sketch underestimates any key's frequency by at most
// W/(h+1) (W = total inserted weight). The Example 8 interface
// `heavy_hitters()` therefore returns a list that (1) contains every key x
// with f(x) > 2W/h and (2) contains no key with f(x) <= W/h.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace umc {

class MisraGries {
 public:
  using Key = std::uint64_t;

  struct Item {
    Key key;
    Weight count;  // lower bound on true frequency
  };

  /// Largest supported capacity: a sketch holds at most `capacity` counters
  /// (one more while an insert is reduced), so its rows are inline and
  /// building, copying or merging one never allocates.
  static constexpr int kMaxCapacity = 32;

  /// Sketch with at most `capacity` counters. Bit size is Õ(capacity).
  explicit MisraGries(int capacity = 8) : capacity_(capacity) {
    UMC_ASSERT(capacity >= 1 && capacity <= kMaxCapacity);
  }
  // Copies move only the counters in use, not the whole inline row.
  MisraGries(const MisraGries& o) : capacity_(o.capacity_), total_(o.total_), size_(o.size_) {
    std::copy_n(o.items_.begin(), size_, items_.begin());
  }
  MisraGries& operator=(const MisraGries& o) {
    capacity_ = o.capacity_;
    total_ = o.total_;
    size_ = o.size_;
    std::copy_n(o.items_.begin(), size_, items_.begin());
    return *this;
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
  [[nodiscard]] std::span<const Item> items() const {
    return {items_.data(), static_cast<std::size_t>(size_)};
  }

  /// Example 8 output: keys whose true frequency exceeds 2W/h are all
  /// present; keys with frequency <= W/h are all absent.
  [[nodiscard]] std::vector<Key> heavy_hitters() const;
  /// Same keys, appended to `out`.
  void append_heavy_hitters(std::vector<Key>& out) const;

 private:
  /// Reduces items[0, size) to at most `capacity` counters; returns the
  /// new size.
  static int reduce(Item* items, int size, int capacity);

  int capacity_;
  Weight total_ = 0;
  int size_ = 0;
  std::array<Item, kMaxCapacity + 1> items_;  // [0, size_), sorted by key
};

}  // namespace umc
