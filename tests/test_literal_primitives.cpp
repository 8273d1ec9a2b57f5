// Pins the charged Appendix A primitives to literal Definition 9
// executions: the Lemma 45 prefix sums run as real Minor-Aggregation
// rounds must produce the same values at the same asymptotic round count
// as the charged implementation.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "minoragg/network.hpp"
#include "minoragg/path_sums.hpp"
#include "util/rng.hpp"

namespace umc::minoragg {
namespace {

/// LITERAL Lemma 45: the same prefix sums executed as genuine Definition 9
/// rounds on a path-shaped Network (node i adjacent to i+1 via edge i).
/// One round per halving level: the interior edges of every right half
/// contract, and each block-boundary edge hands the left half's running
/// prefix to the right supernode, whose nodes all fold it in. The tests
/// below pin the charged version's round count to this real execution.
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

TEST(LiteralLemma45, MatchesChargedImplementationOnSums) {
  Rng rng(3);
  for (const NodeId n : {1, 2, 3, 5, 16, 33, 100, 257}) {
    const WeightedGraph path = path_graph(n);
    std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
    for (auto& v : vals) v = rng.next_in(-50, 50);
    Ledger charged, literal;
    const auto want = path_prefix_sums<SumAgg>(vals, charged);
    const auto got = literal_path_prefix_sums<SumAgg>(path, vals, literal);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "n=" << n;
    // Identical round structure: one round per halving level (+1 setup).
    EXPECT_EQ(literal.rounds(), charged.rounds());
  }
}

TEST(LiteralLemma45, WorksWithMinAggregator) {
  const WeightedGraph path = path_graph(9);
  const std::vector<std::int64_t> vals = {9, 7, 8, 3, 5, 4, 1, 2, 6};
  Ledger ledger;
  const auto got = literal_path_prefix_sums<MinAgg>(path, vals, ledger);
  std::int64_t run = MinAgg::identity();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    run = std::min(run, vals[i]);
    EXPECT_EQ(got[i], run);
  }
}

TEST(LiteralLemma45, RejectsNonPathGraphs) {
  const WeightedGraph not_path = star_graph(5);
  const std::vector<std::int64_t> vals(5, 1);
  Ledger ledger;
  EXPECT_THROW((void)literal_path_prefix_sums<SumAgg>(not_path, vals, ledger),
               invariant_error);
}

}  // namespace
}  // namespace umc::minoragg
