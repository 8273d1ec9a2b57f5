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

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace umc::minoragg {

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
  /// Keys are string_views looked up by binary search in a flat, key-sorted
  /// table — hot-path bumps from string literals allocate only on a key's
  /// first appearance.
  void bump(std::string_view key, std::int64_t v = 1) {
    UMC_ASSERT(!is_max_key(key));
    slot(key)->second += v;
  }
  void set_max(std::string_view key, std::int64_t v) {
    UMC_ASSERT(is_max_key(key));
    auto& s = slot(key)->second;
    s = std::max(s, v);
  }
  [[nodiscard]] std::int64_t counter(std::string_view key) const {
    const auto it = std::lower_bound(counters_.begin(), counters_.end(), key, KeyLess{});
    return it != counters_.end() && it->first == key ? it->second : 0;
  }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// JSON rendering of rounds + counters, for experiment pipelines:
  /// {"rounds": 123, "counters": {"cv_iterations": 4, ...}}.
  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"rounds\": " << rounds_ << ", \"counters\": {";
    bool first = true;
    for (const auto& [k, v] : counters_) {
      if (!first) os << ", ";
      first = false;
      os << '\"' << k << "\": " << v;
    }
    os << "}}";
    return os.str();
  }

  /// Merge one counter by its kind ("max_" prefix = max, else sum). Used
  /// when transferring counters between ledgers.
  void absorb_counter(std::string_view key, std::int64_t v) {
    merge_into(slot(key)->second, key, v);
  }

  /// Merge every counter of `child` by kind, straight from its sorted
  /// table: one forward walk, since both tables share the key order.
  void absorb_counters(const Ledger& child) {
    std::size_t from = 0;
    for (const auto& [k, v] : child.counters_) {
      const auto it = slot(k, from);
      merge_into(it->second, k, v);
      from = static_cast<std::size_t>(it - counters_.begin()) + 1;
    }
  }

 private:
  struct KeyLess {
    bool operator()(const Counters::value_type& a, std::string_view b) const {
      return std::string_view(a.first) < b;
    }
  };

  static bool is_max_key(std::string_view key) { return key.substr(0, 4) == "max_"; }
  static void merge_into(std::int64_t& s, std::string_view key, std::int64_t v) {
    s = is_max_key(key) ? std::max(s, v) : s + v;
  }

  /// Find-or-insert at the key's sorted position, searching from index
  /// `from` on: materializes a std::string key only when the counter does
  /// not exist yet.
  Counters::iterator slot(std::string_view key, std::size_t from = 0) {
    auto it = std::lower_bound(counters_.begin() + static_cast<std::ptrdiff_t>(from),
                               counters_.end(), key, KeyLess{});
    if (it == counters_.end() || it->first != key) it = counters_.emplace(it, key, 0);
    return it;
  }

  std::int64_t rounds_ = 0;
  Counters counters_;
};

}  // namespace umc::minoragg
