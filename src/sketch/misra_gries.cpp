#include "sketch/misra_gries.hpp"

#include <algorithm>

namespace umc {

void MisraGries::add(Key key, Weight w) {
  UMC_ASSERT(w >= 0);
  if (w == 0) return;
  total_ += w;
  auto it = std::lower_bound(items_.begin(), items_.end(), key,
                             [](const Item& a, Key k) { return a.key < k; });
  if (it != items_.end() && it->key == key) {
    it->count += w;
  } else {
    if (items_.capacity() == 0) {  // one allocation for the sketch's lifetime
      const std::size_t pos = static_cast<std::size_t>(it - items_.begin());
      items_.reserve(static_cast<std::size_t>(capacity_) + 1);
      it = items_.begin() + static_cast<std::ptrdiff_t>(pos);
    }
    items_.insert(it, Item{key, w});
  }
  reduce();
}

void MisraGries::reduce() {
  while (static_cast<int>(items_.size()) > capacity_) {
    // Subtract the smallest counter from everyone; drop the zeros. Total
    // decrement across the sketch's lifetime is <= W/(capacity+1) per key.
    Weight delta = items_.front().count;
    for (const Item& it : items_) delta = std::min(delta, it.count);
    std::size_t kept = 0;
    for (Item it : items_) {
      it.count -= delta;
      if (it.count > 0) items_[kept++] = it;
    }
    items_.resize(kept);
  }
}

MisraGries MisraGries::merge(MisraGries a, const MisraGries& b) {
  UMC_ASSERT_MSG(a.capacity_ == b.capacity_, "merging sketches of different capacity");
  if (b.items_.empty()) {  // nothing to interleave; `a` is within capacity
    a.total_ += b.total_;
    return a;
  }
  std::vector<Item> merged;
  merged.reserve(a.items_.size() + b.items_.size());
  std::size_t i = 0, j = 0;
  while (i < a.items_.size() || j < b.items_.size()) {
    if (j == b.items_.size() || (i < a.items_.size() && a.items_[i].key < b.items_[j].key)) {
      merged.push_back(a.items_[i++]);
    } else if (i == a.items_.size() || b.items_[j].key < a.items_[i].key) {
      merged.push_back(b.items_[j++]);
    } else {
      merged.push_back(Item{a.items_[i].key, a.items_[i].count + b.items_[j].count});
      ++i;
      ++j;
    }
  }
  a.items_ = std::move(merged);
  a.total_ += b.total_;
  a.reduce();
  return a;
}

Weight MisraGries::estimate(Key key) const {
  const auto it = std::lower_bound(items_.begin(), items_.end(), key,
                                   [](const Item& a, Key k) { return a.key < k; });
  return (it != items_.end() && it->key == key) ? it->count : 0;
}

std::vector<MisraGries::Key> MisraGries::heavy_hitters() const {
  std::vector<Key> out;
  append_heavy_hitters(out);
  return out;
}

void MisraGries::append_heavy_hitters(std::vector<Key>& out) const {
  for (const Item& it : items_) {
    // est > W/h  <=>  est * h > W (exact in integers).
    if (it.count * capacity_ > total_) out.push_back(it.key);
  }
}

}  // namespace umc
