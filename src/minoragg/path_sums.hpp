#pragma once

// Numbered path prefix/suffix aggregates (Lemma 45).
//
// Nodes of a path know their index; prefix[i] = fold(values[0..i]) and
// suffix[i] = fold(values[i..n-1]) are computed by the halving recursion of
// the lemma: both halves run simultaneously (they are node-disjoint,
// Corollary 11) and one broadcast round folds the left half's total into the
// right half, so the round cost is one per recursion level = ceil(log2 n),
// plus one initial counting round.

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "minoragg/ledger.hpp"
#include "minoragg/network.hpp"
#include "sketch/aggregators.hpp"
#include "util/math.hpp"

namespace umc::minoragg {

namespace detail {
/// The Lemma 45 halving schedule over a row of n values addressed through
/// `at(j)` (the j-th value in fold order), folded in place: blocks of size
/// `len` merge pairwise, and each level costs one round (all merges are
/// node-disjoint). The carry is read by reference and each target moved
/// into its merge, so value types that own memory are never copied.
template <Aggregator A, typename At>
void fold_prefix_in_place(std::size_t n, At&& at, Ledger& ledger) {
  ledger.charge(1);  // every node learns n (contract-all + sum consensus)
  for (std::size_t len = 1; len < n; len *= 2) {
    for (std::size_t lo = 0; lo + len < n; lo += 2 * len) {
      const typename A::value_type& carry = at(lo + len - 1);
      const std::size_t hi = std::min(lo + 2 * len, n);
      for (std::size_t i = lo + len; i < hi; ++i) at(i) = A::merge(carry, std::move(at(i)));
    }
    ledger.charge(1);
  }
}
}  // namespace detail

/// In-place prefix sums: values[i] becomes fold(values[0..i]).
template <Aggregator A>
void path_prefix_sums_in_place(std::vector<typename A::value_type>& values, Ledger& ledger) {
  detail::fold_prefix_in_place<A>(
      values.size(), [&values](std::size_t j) -> auto& { return values[j]; }, ledger);
}

/// In-place suffix sums: values[i] becomes fold(values[i..n-1]) — the
/// prefix schedule over the reversed row, with the same merges in the same
/// operand order and the same charges.
template <Aggregator A>
void path_suffix_sums_in_place(std::vector<typename A::value_type>& values, Ledger& ledger) {
  const std::size_t n = values.size();
  detail::fold_prefix_in_place<A>(
      n, [&values, n](std::size_t j) -> auto& { return values[n - 1 - j]; }, ledger);
}

template <Aggregator A>
std::vector<typename A::value_type> path_prefix_sums(
    std::span<const typename A::value_type> values, Ledger& ledger) {
  std::vector<typename A::value_type> prefix(values.begin(), values.end());
  path_prefix_sums_in_place<A>(prefix, ledger);
  return prefix;
}

/// LITERAL Lemma 45: the same prefix sums executed as genuine Definition 9
/// rounds on a path-shaped Network (node i adjacent to i+1 via edge i).
/// One round per halving level: the interior edges of every right half
/// contract, and each block-boundary edge hands the left half's running
/// prefix to the right supernode, whose nodes all fold it in. Used by tests
/// to pin the charged version's round count to real model execution.
template <Aggregator A>
std::vector<typename A::value_type> literal_path_prefix_sums(
    const WeightedGraph& path, std::span<const typename A::value_type> values,
    Ledger& ledger) {
  using V = typename A::value_type;
  const std::size_t n = values.size();
  UMC_ASSERT(static_cast<NodeId>(n) == path.n());
  UMC_ASSERT_MSG(path.m() == path.n() - 1, "expected a path graph");
  for (EdgeId e = 0; e < path.m(); ++e) {
    UMC_ASSERT_MSG(std::min(path.edge(e).u, path.edge(e).v) == e &&
                       std::max(path.edge(e).u, path.edge(e).v) == e + 1,
                   "expected edge i to connect nodes (i, i+1)");
  }
  Network net(path, ledger);
  std::vector<V> prefix(values.begin(), values.end());
  ledger.charge(1);  // everyone learns n
  for (std::size_t len = 1; len < n; len *= 2) {
    // Contract the interior of every right half so its nodes form one
    // supernode; the boundary edge delivers the carry by aggregation.
    std::vector<bool> contract(static_cast<std::size_t>(path.m()), false);
    for (std::size_t lo = 0; lo + len < n; lo += 2 * len) {
      const std::size_t hi = std::min(lo + 2 * len, n);
      for (std::size_t i = lo + len; i + 1 < hi; ++i) contract[i] = true;
    }
    struct CarryAgg {
      using value_type = V;
      static value_type identity() { return A::identity(); }
      static value_type merge(value_type a, value_type b) { return A::merge(a, b); }
    };
    const std::vector<V> dummy(n, A::identity());
    const auto res = net.template round<CarryAgg, CarryAgg>(
        contract, dummy, [&prefix, len, n](EdgeId e, const V&, const V&) {
          // Edge e connects nodes e and e+1; it is a block boundary iff
          // e+1 == lo+len for its block.
          const std::size_t i = static_cast<std::size_t>(e);
          const bool boundary = ((i + 1) % (2 * len)) == len && i + 1 < n;
          return std::pair<V, V>{A::identity(),
                                 boundary ? prefix[i] : A::identity()};
        });
    for (std::size_t lo = 0; lo + len < n; lo += 2 * len) {
      const std::size_t hi = std::min(lo + 2 * len, n);
      for (std::size_t i = lo + len; i < hi; ++i)
        prefix[i] = A::merge(res.aggregate[i], prefix[i]);
    }
  }
  return prefix;
}

template <Aggregator A>
std::vector<typename A::value_type> path_suffix_sums(
    std::span<const typename A::value_type> values, Ledger& ledger) {
  std::vector<typename A::value_type> suffix(values.begin(), values.end());
  path_suffix_sums_in_place<A>(suffix, ledger);
  return suffix;
}

}  // namespace umc::minoragg
