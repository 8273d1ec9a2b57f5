#include "sketch/misra_gries.hpp"

#include <algorithm>

namespace umc {

void MisraGries::add(Key key, Weight w) {
  UMC_ASSERT(w >= 0);
  if (w == 0) return;
  total_ += w;
  Item* const end = items_.data() + size_;
  Item* const it = std::lower_bound(items_.data(), end, key,
                                    [](const Item& a, Key k) { return a.key < k; });
  if (it != end && it->key == key) {
    it->count += w;
  } else {
    std::copy_backward(it, end, end + 1);
    *it = Item{key, w};
    ++size_;
  }
  size_ = reduce(items_.data(), size_, capacity_);
}

int MisraGries::reduce(Item* items, int size, int capacity) {
  while (size > capacity) {
    // Subtract the smallest counter from everyone; drop the zeros. Total
    // decrement across the sketch's lifetime is <= W/(capacity+1) per key.
    Weight delta = items[0].count;
    for (int i = 0; i < size; ++i) delta = std::min(delta, items[i].count);
    int kept = 0;
    for (int i = 0; i < size; ++i) {
      Item it = items[i];
      it.count -= delta;
      if (it.count > 0) items[kept++] = it;
    }
    size = kept;
  }
  return size;
}

MisraGries MisraGries::merge(MisraGries a, const MisraGries& b) {
  UMC_ASSERT_MSG(a.capacity_ == b.capacity_, "merging sketches of different capacity");
  a.total_ += b.total_;
  if (b.size_ == 0) return a;  // nothing to interleave; `a` is within capacity
  std::array<Item, 2 * kMaxCapacity> merged;
  int n = 0, i = 0, j = 0;
  while (i < a.size_ || j < b.size_) {
    if (j == b.size_ || (i < a.size_ && a.items_[static_cast<std::size_t>(i)].key <
                                            b.items_[static_cast<std::size_t>(j)].key)) {
      merged[static_cast<std::size_t>(n++)] = a.items_[static_cast<std::size_t>(i++)];
    } else if (i == a.size_ || b.items_[static_cast<std::size_t>(j)].key <
                                   a.items_[static_cast<std::size_t>(i)].key) {
      merged[static_cast<std::size_t>(n++)] = b.items_[static_cast<std::size_t>(j++)];
    } else {
      const Item& x = a.items_[static_cast<std::size_t>(i++)];
      merged[static_cast<std::size_t>(n++)] =
          Item{x.key, x.count + b.items_[static_cast<std::size_t>(j++)].count};
    }
  }
  a.size_ = reduce(merged.data(), n, a.capacity_);
  std::copy_n(merged.begin(), a.size_, a.items_.begin());
  return a;
}

Weight MisraGries::estimate(Key key) const {
  const std::span<const Item> row = items();
  const auto it = std::lower_bound(row.begin(), row.end(), key,
                                   [](const Item& a, Key k) { return a.key < k; });
  return (it != row.end() && it->key == key) ? it->count : 0;
}

std::vector<MisraGries::Key> MisraGries::heavy_hitters() const {
  std::vector<Key> out;
  append_heavy_hitters(out);
  return out;
}

void MisraGries::append_heavy_hitters(std::vector<Key>& out) const {
  for (const Item& it : items()) {
    // est > W/h  <=>  est * h > W (exact in integers).
    if (it.count * capacity_ > total_) out.push_back(it.key);
  }
}

}  // namespace umc
