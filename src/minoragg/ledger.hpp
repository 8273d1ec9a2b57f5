#pragma once

// Round accounting for the Minor-Aggregation model.
//
// Every model operation charges rounds to a Ledger. Composition rules match
// the paper:
//   * sequential steps add (default `charge`),
//   * node-disjoint simultaneous executions add the MAX of their children's
//     counts (Corollary 11) via `charge_parallel`,
//   * executing on a virtual graph with beta virtual nodes multiplies each
//     round by (beta + 1) (Theorem 14) — see VirtualNetwork.
//
// Ledgers also track auxiliary experiment counters (recursion depth,
// CV iterations, ...) surfaced by the benches.
//
// Counter key convention (normative): the key's "max_" prefix IS the
// counter's merge kind. Keys starting with "max_" hold running maxima
// (depths, degrees, widths) and merge by max across every composition —
// parallel or sequential; all other keys are additive work counts and merge
// by sum. `bump`/`set_max` assert the prefix matches the operation, so a
// key cannot silently change kind. The typed metrics registry (obs/) is the
// public metrics surface; obs/ledger_bridge.hpp translates this convention
// into Counter (sum-kind) and Gauge::set_max (max-kind) instances.
//
// Storage: the counters the library bumps are listed in kCounterNames and
// live in fixed slots, addressed by a CounterId at each call site, with a
// presence bit per slot (a bump by 0 still shows the key). Any other key
// (tests and benches use ad-hoc ones) goes to a small key-sorted table. A
// Ledger that only holds fixed counters is a fixed-size value: building,
// bumping and copying it never allocates.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace umc::minoragg {

/// The counters the library itself bumps, in key order: CounterId::x names
/// key "x", and kCounterNames[id] is its text.
enum class CounterId : std::uint8_t {
  boruvka_iterations, cv_iterations, hl_merge_iterations, max_beta, max_general_depth,
  max_interest_colors, max_interest_degree, max_p2p_depth, orient_merge_iterations,
  packing_iterations, stream_delta_cache_hits, stream_tree_evals, stream_trees_repaired,
  stream_trees_resolved, stream_trees_skipped, stream_warm_solves, subtree_star_calls
};
inline constexpr std::array<std::string_view, 17> kCounterNames = {
    "boruvka_iterations",      "cv_iterations",         "hl_merge_iterations",
    "max_beta",                "max_general_depth",     "max_interest_colors",
    "max_interest_degree",     "max_p2p_depth",         "orient_merge_iterations",
    "packing_iterations",      "stream_delta_cache_hits", "stream_tree_evals",
    "stream_trees_repaired",   "stream_trees_resolved", "stream_trees_skipped",
    "stream_warm_solves",      "subtree_star_calls"};
static_assert(std::is_sorted(kCounterNames.begin(), kCounterNames.end()));

class Ledger {
 public:
  /// Experiment counters as (key, value) pairs in ascending key order.
  using Counters = std::vector<std::pair<std::string, std::int64_t>>;

  /// Sequential charge of `r` Minor-Aggregation rounds.
  void charge(std::int64_t r) {
    UMC_ASSERT(r >= 0);
    rounds_ += r;
  }

  /// Corollary 11: node-disjoint parallel composition — the cost of running
  /// child algorithms simultaneously is the maximum of their round counts.
  /// Counters merge by kind (see `absorb_counter`).
  void charge_parallel(std::span<const Ledger> children) {
    std::int64_t mx = 0;
    for (const Ledger& c : children) {
      mx = std::max(mx, c.rounds_);
      absorb_counters(c);
    }
    rounds_ += mx;
  }

  /// Sequential absorption of a child ledger.
  void charge_sequential(const Ledger& child) {
    rounds_ += child.rounds_;
    absorb_counters(child);
  }

  [[nodiscard]] std::int64_t rounds() const { return rounds_; }

  /// Experiment counters. Two kinds, distinguished by name: keys starting
  /// with "max_" hold maxima (depths, degrees) and merge by max across any
  /// composition; all others are additive work counts and merge by sum.
  /// The CounterId overloads address a fixed slot directly; a string key
  /// resolves to its fixed slot if it has one, else to the sorted table.
  void bump(CounterId id, std::int64_t v = 1) {
    UMC_ASSERT(!is_max_key(name(id)));
    fixed(id) += v;
  }
  void bump(std::string_view key, std::int64_t v = 1) {
    UMC_ASSERT(!is_max_key(key));
    slot(key) += v;
  }
  void set_max(CounterId id, std::int64_t v) {
    UMC_ASSERT(is_max_key(name(id)));
    std::int64_t& s = fixed(id);
    s = std::max(s, v);
  }
  void set_max(std::string_view key, std::int64_t v) {
    UMC_ASSERT(is_max_key(key));
    std::int64_t& s = slot(key);
    s = std::max(s, v);
  }
  [[nodiscard]] std::int64_t counter(CounterId id) const {
    return fixed_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::int64_t counter(std::string_view key) const {
    if (const int id = fixed_id(key); id >= 0) return fixed_[static_cast<std::size_t>(id)];
    const auto it = std::lower_bound(extra_.begin(), extra_.end(), key, KeyLess{});
    return it != extra_.end() && it->first == key ? it->second : 0;
  }
  /// Number of counters present (fixed and other keys).
  [[nodiscard]] std::size_t num_counters() const {
    return static_cast<std::size_t>(std::popcount(present_)) + extra_.size();
  }
  [[nodiscard]] Counters counters() const {
    Counters out;
    out.reserve(num_counters());
    for_each_counter([&out](std::string_view k, std::int64_t v) { out.emplace_back(k, v); });
    return out;
  }

  /// JSON rendering of rounds + counters, for experiment pipelines:
  /// {"rounds": 123, "counters": {"cv_iterations": 4, ...}}.
  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"rounds\": " << rounds_ << ", \"counters\": {";
    bool first = true;
    for_each_counter([&](std::string_view k, std::int64_t v) {
      if (!first) os << ", ";
      first = false;
      os << '\"' << k << "\": " << v;
    });
    os << "}}";
    return os.str();
  }

  /// Merge one counter by its kind ("max_" prefix = max, else sum). Used
  /// when transferring counters between ledgers.
  void absorb_counter(std::string_view key, std::int64_t v) { merge_into(slot(key), key, v); }

  /// Merge every counter of `child` by kind: its fixed slots by presence
  /// bit, its other keys in one forward walk (both tables share the order).
  void absorb_counters(const Ledger& child) {
    for (std::uint32_t bits = child.present_; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<CounterId>(std::countr_zero(bits));
      merge_into(fixed(id), name(id), child.counter(id));
    }
    std::size_t from = 0;
    for (const auto& [k, v] : child.extra_) {
      const auto it = extra_slot(k, from);
      merge_into(it->second, k, v);
      from = static_cast<std::size_t>(it - extra_.begin()) + 1;
    }
  }

 private:
  struct KeyLess {
    bool operator()(const Counters::value_type& a, std::string_view b) const {
      return std::string_view(a.first) < b;
    }
  };

  static constexpr std::string_view name(CounterId id) {
    return kCounterNames[static_cast<std::size_t>(id)];
  }
  static int fixed_id(std::string_view key) {
    const auto it = std::lower_bound(kCounterNames.begin(), kCounterNames.end(), key);
    return it != kCounterNames.end() && *it == key ? static_cast<int>(it - kCounterNames.begin())
                                                   : -1;
  }
  static bool is_max_key(std::string_view key) { return key.substr(0, 4) == "max_"; }
  static void merge_into(std::int64_t& s, std::string_view key, std::int64_t v) {
    s = is_max_key(key) ? std::max(s, v) : s + v;
  }

  /// The fixed slot of `id`, marked present.
  std::int64_t& fixed(CounterId id) {
    present_ |= std::uint32_t{1} << static_cast<unsigned>(id);
    return fixed_[static_cast<std::size_t>(id)];
  }
  /// The counter of `key`, created at 0 if it does not exist yet.
  std::int64_t& slot(std::string_view key) {
    if (const int id = fixed_id(key); id >= 0) return fixed(static_cast<CounterId>(id));
    return extra_slot(key, 0)->second;
  }
  /// Find-or-insert in the sorted table of other keys, searching from index
  /// `from` on.
  Counters::iterator extra_slot(std::string_view key, std::size_t from) {
    auto it = std::lower_bound(extra_.begin() + static_cast<std::ptrdiff_t>(from), extra_.end(),
                               key, KeyLess{});
    if (it == extra_.end() || it->first != key) it = extra_.emplace(it, key, 0);
    return it;
  }

  /// Calls f(key, value) for every present counter in ascending key order:
  /// a merge walk of the fixed slots and the other keys.
  template <typename F>
  void for_each_counter(F&& f) const {
    auto it = extra_.begin();
    for (std::uint32_t bits = present_; bits != 0; bits &= bits - 1) {
      const std::string_view k = kCounterNames[static_cast<std::size_t>(std::countr_zero(bits))];
      for (; it != extra_.end() && std::string_view(it->first) < k; ++it) f(it->first, it->second);
      f(k, fixed_[static_cast<std::size_t>(std::countr_zero(bits))]);
    }
    for (; it != extra_.end(); ++it) f(it->first, it->second);
  }

  std::int64_t rounds_ = 0;
  std::uint32_t present_ = 0;  // bit i: kCounterNames[i] is present
  static_assert(kCounterNames.size() <= 32, "one presence bit per fixed counter");
  std::array<std::int64_t, kCounterNames.size()> fixed_{};
  Counters extra_;  // keys outside kCounterNames, sorted
};

}  // namespace umc::minoragg
