#include "minoragg/round_engine.hpp"

#include <climits>
#include <cstring>
#include <utility>

#include "graph/dsu.hpp"

namespace umc::minoragg {

namespace {

// Packing runs on every plan() call (hit or miss) — it must be word-speed,
// not bit-speed, or it dominates a cache hit. libstdc++ stores vector<bool>
// LSB-first in 64-bit words, exactly our layout, so there the pack is a
// memcpy of the storage words plus masking the tail; elsewhere a branchless
// 64-bit batch loop.
std::vector<std::uint64_t> pack_pattern(const std::vector<bool>& contract) {
  const std::size_t nwords = (contract.size() + 63) / 64;
  std::vector<std::uint64_t> words(nwords, 0);
  if (nwords == 0) return words;
#if defined(__GLIBCXX__) && ULONG_MAX == 0xffffffffffffffffULL
  // The memcpy leans on libstdc++ internals (_Bit_iterator's _M_p word
  // pointer); a renamed member fails to compile, and this guard catches a
  // changed word type before it can silently mis-pack.
  static_assert(sizeof(*std::declval<std::vector<bool>::const_iterator>()._M_p) ==
                    sizeof(std::uint64_t),
                "vector<bool> storage word must be 64-bit for the memcpy fast path");
  std::memcpy(words.data(), contract.begin()._M_p, nwords * sizeof(std::uint64_t));
#else
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, contract.size() - base);
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < lim; ++k)
      acc |= static_cast<std::uint64_t>(static_cast<bool>(contract[base + k])) << k;
    words[w] = acc;
  }
#endif
  // The storage tail past size() is unspecified — zero it so equal patterns
  // pack identically.
  if (const std::size_t rem = contract.size() % 64; rem != 0)
    words.back() &= (~std::uint64_t{0}) >> (64 - rem);
  return words;
}

std::uint64_t hash_pattern(const std::vector<std::uint64_t>& words, std::size_t bits) {
  // FNV-1a over the packed words plus the bit length.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(bits));
  for (const std::uint64_t w : words) mix(w);
  return h;
}

// Registry lookups are a map walk under a mutex; the hot path pays one
// cached-reference atomic inc instead.
obs::Counter& plan_cache_hit_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "umc_engine_plan_cache_hits_total", {}, "Contraction patterns replayed from the plan cache.");
  return c;
}
obs::Counter& plan_cache_miss_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "umc_engine_plan_cache_misses_total", {}, "Contraction patterns that required a plan build.");
  return c;
}

}  // namespace

const RoundPlan& RoundEngine::plan(const std::vector<bool>& contract) {
  const WeightedGraph& g = *g_;
  UMC_ASSERT(static_cast<EdgeId>(contract.size()) == g.m());
  std::vector<std::uint64_t> pattern = pack_pattern(contract);
  const std::uint64_t hash = hash_pattern(pattern, contract.size());

  ++clock_;
  for (CacheEntry& entry : cache_) {
    if (entry.hash == hash && entry.plan.pattern == pattern) {
      ++hits_;
      plan_cache_hit_counter().inc();
      entry.stamp = clock_;
      return entry.plan;
    }
  }
  ++misses_;
  plan_cache_miss_counter().inc();
  UMC_OBS_SPAN_VAR(obs_plan_build, "engine/plan_build", "engine");
  obs_plan_build.arg("m", g.m());

  RoundPlan plan;
  plan.pattern = std::move(pattern);
  plan.hash = hash;

  const std::size_t n = static_cast<std::size_t>(g.n());
  Dsu dsu(g.n());
  for (EdgeId e = 0; e < g.m(); ++e)
    if (contract[static_cast<std::size_t>(e)]) dsu.unite(g.edge(e).u, g.edge(e).v);

  // Supernode id := smallest contained node id; dense groups numbered in
  // first-seen (= ascending representative) order.
  plan.supernode.resize(n);
  plan.group_of.resize(n);
  std::vector<std::int32_t> group_of_root(n, -1);
  std::vector<NodeId> smallest(n, kNoNode);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::size_t r = static_cast<std::size_t>(dsu.find(v));
    if (smallest[r] == kNoNode) {
      smallest[r] = v;
      group_of_root[r] = plan.num_groups++;
    }
    plan.supernode[static_cast<std::size_t>(v)] = smallest[r];
    plan.group_of[static_cast<std::size_t>(v)] = group_of_root[r];
  }

  // Members per group (counting sort by group; scan order keeps members
  // ascending — the reference consensus fold order).
  const std::size_t groups = static_cast<std::size_t>(plan.num_groups);
  plan.node_begin.assign(groups + 1, 0);
  for (NodeId v = 0; v < g.n(); ++v)
    ++plan.node_begin[static_cast<std::size_t>(plan.group_of[static_cast<std::size_t>(v)]) + 1];
  for (std::size_t gi = 0; gi < groups; ++gi) plan.node_begin[gi + 1] += plan.node_begin[gi];
  plan.node_members.resize(n);
  {
    std::vector<std::int32_t> cursor(plan.node_begin.begin(), plan.node_begin.end() - 1);
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto gi = static_cast<std::size_t>(plan.group_of[static_cast<std::size_t>(v)]);
      plan.node_members[static_cast<std::size_t>(cursor[gi]++)] = v;
    }
  }

  // Surviving minor edges (ascending id) with pre-resolved endpoints and
  // groups, plus the per-group incidence schedule in the same order.
  plan.edges.reserve(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    const std::int32_t gu = plan.group_of[static_cast<std::size_t>(ed.u)];
    const std::int32_t gv = plan.group_of[static_cast<std::size_t>(ed.v)];
    if (gu == gv) continue;  // self-loop in G', removed
    plan.edges.push_back(RoundPlan::MinorEdge{e, ed.u, ed.v, gu, gv});
  }
  plan.edges.shrink_to_fit();
  plan.inc_begin.assign(groups + 1, 0);
  for (const RoundPlan::MinorEdge& me : plan.edges) {
    ++plan.inc_begin[static_cast<std::size_t>(me.gu) + 1];
    ++plan.inc_begin[static_cast<std::size_t>(me.gv) + 1];
  }
  for (std::size_t gi = 0; gi < groups; ++gi) plan.inc_begin[gi + 1] += plan.inc_begin[gi];
  plan.inc.resize(plan.edges.size() * 2);
  {
    std::vector<std::int32_t> cursor(plan.inc_begin.begin(), plan.inc_begin.end() - 1);
    for (std::size_t i = 0; i < plan.edges.size(); ++i) {
      const RoundPlan::MinorEdge& me = plan.edges[i];
      plan.inc[static_cast<std::size_t>(cursor[static_cast<std::size_t>(me.gu)]++)] =
          static_cast<std::uint32_t>(2 * i);
      plan.inc[static_cast<std::size_t>(cursor[static_cast<std::size_t>(me.gv)]++)] =
          static_cast<std::uint32_t>(2 * i + 1);
    }
  }

  // Insert, evicting the least-recently-used entry when full. The full
  // capacity is reserved before the first insertion so push_back never
  // reallocates — plan() hands out references into cache_, and they must
  // stay valid across later insertions (see plan()'s contract in the
  // header).
  if (cache_.size() < kPlanCacheCapacity) {
    cache_.reserve(kPlanCacheCapacity);
    cache_.push_back(CacheEntry{hash, std::move(plan), clock_});
    return cache_.back().plan;
  }
  std::size_t victim = 0;
  for (std::size_t i = 1; i < cache_.size(); ++i)
    if (cache_[i].stamp < cache_[victim].stamp) victim = i;
  cache_[victim] = CacheEntry{hash, std::move(plan), clock_};
  return cache_[victim].plan;
}

}  // namespace umc::minoragg
