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

template <Aggregator A>
std::vector<typename A::value_type> path_suffix_sums(
    std::span<const typename A::value_type> values, Ledger& ledger) {
  std::vector<typename A::value_type> suffix(values.begin(), values.end());
  path_suffix_sums_in_place<A>(suffix, ledger);
  return suffix;
}

}  // namespace umc::minoragg
