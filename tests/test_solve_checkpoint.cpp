// Pipeline checkpointing (solve_checkpoint.hpp): crashes injected at every
// commit point of the resumable solve must lose only in-flight work, and the
// resumed run must be bit-identical — result, ledger charges, generator exit
// state — to an uninterrupted exact_mincut. Also the PackingCache
// fingerprint regression suite (node count and endpoints, not just weights).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"
#include "mincut/solve_checkpoint.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

struct Baseline {
  ExactMinCutResult result;
  minoragg::Ledger ledger;
  Rng::State rng_exit{};
};

Baseline uninterrupted(const WeightedGraph& g, std::uint64_t seed, const PackingConfig& config,
                       int threads) {
  Baseline b;
  Rng rng(seed);
  b.result = exact_mincut(g, rng, b.ledger, config, threads);
  b.rng_exit = rng.state();
  return b;
}

void expect_same(const Baseline& want, const ExactMinCutResult& got,
                 const minoragg::Ledger& ledger, const Rng& rng, const std::string& what) {
  EXPECT_EQ(got.value, want.result.value) << what;
  EXPECT_EQ(got.e, want.result.e) << what;
  EXPECT_EQ(got.f, want.result.f) << what;
  EXPECT_EQ(got.winning_tree, want.result.winning_tree) << what;
  EXPECT_EQ(got.num_trees, want.result.num_trees) << what;
  EXPECT_EQ(ledger.rounds(), want.ledger.rounds()) << what;
  EXPECT_EQ(ledger.counters(), want.ledger.counters()) << what;
  EXPECT_EQ(rng.state(), want.rng_exit) << what;
}

using Site = std::pair<SolvePhase, std::int64_t>;

/// Outcome of a crash/retry protocol: the final attempt's (result, ledger,
/// rng) plus the surviving checkpoint.
struct Recovered {
  ExactMinCutResult result;
  minoragg::Ledger ledger;
  Rng rng{0};
  SolveCheckpoint ckpt;
  int attempts = 0;
};

/// Crashes once at each site of `crashes`. Tree-solve hooks fire on session
/// threads concurrently with the producer's, so the set is locked.
CrashHook crash_once_at(std::set<Site>& crashes, std::mutex& mu) {
  return [&crashes, &mu](SolvePhase phase, std::int64_t index) {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = crashes.find({phase, index});
    if (it == crashes.end()) return;
    crashes.erase(it);  // at most once per plan
    throw crash_error(phase, index);
  };
}

/// Runs the resumable solve to completion, crashing once at each site in
/// `crashes` (each fired at most once), with a FRESH ledger per attempt —
/// a crashed attempt's partial charges are discarded, like a dead process's.
void solve_with_crashes(const WeightedGraph& g, std::uint64_t seed, const PackingConfig& config,
                        int threads, std::set<Site> crashes, Recovered& r) {
  std::mutex mu;
  const CrashHook hook = crash_once_at(crashes, mu);
  for (;;) {
    ++r.attempts;
    ASSERT_LE(r.attempts, 64) << "crash protocol failed to converge";
    r.rng = Rng(seed);  // crash contract: reset the generator to entry state
    r.ledger = minoragg::Ledger();
    try {
      r.result = exact_mincut(g, r.rng, r.ledger, config, threads, &r.ckpt, hook);
      return;
    } catch (const crash_error&) {
      continue;
    }
  }
}

WeightedGraph test_graph(std::uint64_t seed, int n = 24, double p = 0.3) {
  Rng rng(seed);
  WeightedGraph g = erdos_renyi_connected(n, p, rng);
  randomize_weights(g, 1, 9, rng);
  return g;
}

TEST(SolveCheckpoint, UninterruptedResumableMatchesExactMincut) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(101);
  const PackingConfig config;
  const Baseline want = uninterrupted(g, 7, config, 2);

  PackingCache::global().clear();  // exercise the live path, not a replay
  Rng rng(7);
  minoragg::Ledger ledger;
  SolveCheckpoint ckpt;
  const ExactMinCutResult got = exact_mincut(g, rng, ledger, config, 2, &ckpt);
  expect_same(want, got, ledger, rng, "no crashes");
  EXPECT_EQ(ckpt.replayed_units, 0);
  EXPECT_TRUE(ckpt.packing.complete());
  EXPECT_EQ(ckpt.committed_solves(), want.result.num_trees);
  EXPECT_EQ(got.value, baseline::stoer_wagner(g).value);
}

TEST(SolveCheckpoint, ResumableHitsPackingCacheWhenCheckpointEmpty) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(103);
  const PackingConfig config;
  const Baseline want = uninterrupted(g, 9, config, 1);  // populates the cache

  const std::int64_t hits_before = PackingCache::global().hits();
  Rng rng(9);
  minoragg::Ledger ledger;
  SolveCheckpoint ckpt;
  const ExactMinCutResult got = exact_mincut(g, rng, ledger, config, 1, &ckpt);
  expect_same(want, got, ledger, rng, "cache replay");
  EXPECT_GT(PackingCache::global().hits(), hits_before);
}

TEST(SolveCheckpoint, CrashAtEveryCommitPointResumesBitIdentical) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(107, 20, 0.3);
  PackingConfig config;
  config.use_cache = false;  // force the live resume path on every attempt
  const Baseline want = uninterrupted(g, 11, config, 2);

  // Enumerate the commit sites one crash-free run fires.
  std::vector<Site> sites;
  {
    SolveCheckpoint probe;
    Rng rng(11);
    minoragg::Ledger ledger;
    std::mutex mu;
    (void)exact_mincut(g, rng, ledger, config, 2, &probe,
                       [&](SolvePhase phase, std::int64_t index) {
                         const std::lock_guard<std::mutex> lock(mu);
                         sites.emplace_back(phase, index);
                       });
    EXPECT_FALSE(probe.packing.sampled);  // case A
  }
  ASSERT_GE(sites.size(), 3u);

  for (const Site& site : sites) {
    SCOPED_TRACE(std::string(to_string(site.first)) + " #" + std::to_string(site.second));
    Recovered r;
    solve_with_crashes(g, 11, config, 2, {site}, r);
    EXPECT_EQ(r.attempts, 2);  // one crash, one clean resume
    expect_same(want, r.result, r.ledger, r.rng, "crash site");
  }
}

TEST(SolveCheckpoint, MidPackingCrashResumesFromLastCommittedIteration) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(109, 22, 0.3);
  PackingConfig config;
  config.use_cache = false;
  const Baseline want = uninterrupted(g, 13, config, 2);
  const int iterations = want.result.num_trees;
  ASSERT_GE(iterations, 6);

  const std::int64_t crash_at = iterations / 2;
  SolveCheckpoint ckpt;
  std::int64_t resumed_live = 0;
  bool crashed = false;
  {
    Rng rng(13);
    minoragg::Ledger ledger;
    try {
      (void)exact_mincut(g, rng, ledger, config, 2, &ckpt,
                         [&](SolvePhase phase, std::int64_t index) {
                           if (phase == SolvePhase::kPackingIteration && index == crash_at &&
                               !crashed) {
                             crashed = true;
                             throw crash_error(phase, index);
                           }
                         });
      FAIL() << "crash hook did not fire";
    } catch (const crash_error& e) {
      EXPECT_EQ(e.phase(), SolvePhase::kPackingIteration);
      EXPECT_EQ(e.index(), crash_at);
    }
  }
  // The crash lost exactly the in-flight iteration: 0..crash_at-1 committed.
  EXPECT_EQ(ckpt.packing.committed_iterations(), crash_at);
  EXPECT_TRUE(ckpt.packing.setup_done);
  EXPECT_FALSE(ckpt.packing.complete());

  // Resume: only iterations >= crash_at run live (the journal replays the
  // prefix), and the merged outcome is bit-identical to never crashing.
  Rng rng(13);
  minoragg::Ledger ledger;
  const ExactMinCutResult got = exact_mincut(
      g, rng, ledger, config, 2, &ckpt, [&](SolvePhase phase, std::int64_t) {
        if (phase == SolvePhase::kPackingIteration) ++resumed_live;
      });
  EXPECT_EQ(resumed_live, iterations - crash_at);
  EXPECT_GT(ckpt.replayed_units, 0);
  expect_same(want, got, ledger, rng, "mid-packing resume");
}

TEST(SolveCheckpoint, MultiCrashProtocolAcrossAllPhasesConverges) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(113, 20, 0.35);
  PackingConfig config;
  config.use_cache = false;
  const Baseline want = uninterrupted(g, 17, config, 3);
  ASSERT_GE(want.result.num_trees, 4);

  // Five crashes spanning every phase: setup, two packing iterations, two
  // tree solves. Each retry must pick up strictly past the previous crash.
  Recovered r;
  solve_with_crashes(g, 17, config, 3,
                     {{SolvePhase::kPackingSetup, 0},
                      {SolvePhase::kPackingIteration, 1},
                      {SolvePhase::kPackingIteration, want.result.num_trees - 1},
                      {SolvePhase::kTreeSolve, 0},
                      {SolvePhase::kTreeSolve, 2}},
                     r);
  // One clean completion after the crashes; a single attempt can consume
  // SEVERAL sites (a producer crash drains already-spawned solves, whose
  // hooks still fire), so the attempt count is 2..6, not exactly 6.
  EXPECT_GE(r.attempts, 2);
  EXPECT_LE(r.attempts, 6);
  EXPECT_GT(r.ckpt.replayed_units, 0);
  expect_same(want, r.result, r.ledger, r.rng, "multi-crash protocol");
  EXPECT_EQ(r.result.value, baseline::stoer_wagner(g).value);
}

TEST(SolveCheckpoint, SampledRouteCrashResumesBitIdentical) {
  PackingCache::global().clear();
  const WeightedGraph g = test_graph(127, 26, 0.5);
  PackingConfig config;
  config.use_cache = false;
  config.direct_threshold_c = 0.0;  // force the Karger-sampling route (case B)
  const Baseline want = uninterrupted(g, 19, config, 2);

  // Crash after setup committed (so the sample + rng snapshot must carry
  // the resume) and again mid-iterations.
  SolveCheckpoint ckpt;
  std::set<Site> crashes{{SolvePhase::kPackingIteration, 0},
                         {SolvePhase::kPackingIteration, 2}};
  std::mutex mu;
  ExactMinCutResult got;
  Rng rng(19);
  minoragg::Ledger ledger;
  int attempts = 0;
  for (;;) {
    ++attempts;
    ASSERT_LE(attempts, 8);
    rng = Rng(19);
    ledger = minoragg::Ledger();
    try {
      got = exact_mincut(g, rng, ledger, config, 2, &ckpt, crash_once_at(crashes, mu));
      break;
    } catch (const crash_error&) {
      EXPECT_TRUE(ckpt.packing.sampled);
      continue;
    }
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_TRUE(ckpt.packing.sampled);
  EXPECT_FALSE(ckpt.packing.multiplicity.empty());
  expect_same(want, got, ledger, rng, "sampled-route resume");
  EXPECT_EQ(got.value, baseline::stoer_wagner(g).value);
}

TEST(SolveCheckpoint, ResumingAgainstDifferentSolveIsRejected) {
  PackingCache::global().clear();
  const WeightedGraph g1 = test_graph(131);
  const WeightedGraph g2 = test_graph(137);
  PackingConfig config;
  config.use_cache = false;

  SolveCheckpoint ckpt;
  {
    Rng rng(23);
    minoragg::Ledger ledger;
    bool crashed = false;
    EXPECT_THROW((void)exact_mincut(g1, rng, ledger, config, 1, &ckpt,
                                    [&](SolvePhase phase, std::int64_t index) {
                                      if (phase == SolvePhase::kPackingIteration && !crashed) {
                                        crashed = true;
                                        throw crash_error(phase, index);
                                      }
                                    }),
                 crash_error);
  }
  ASSERT_FALSE(ckpt.empty());

  // Same checkpoint, different graph: the binding assertion must fire.
  Rng rng(23);
  minoragg::Ledger ledger;
  EXPECT_THROW((void)exact_mincut(g2, rng, ledger, config, 1, &ckpt), invariant_error);
}

// ---------------------------------------------------------------------------
// Satellite: PackingCache fingerprints must cover the node count and edge
// endpoints — not just the weight multiset — so cached packings can never be
// replayed against a structurally different graph.

WeightedGraph build(NodeId n, const std::vector<std::array<std::int64_t, 3>>& edges) {
  WeightedGraph g(n);
  for (const auto& [u, v, w] : edges)
    g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), static_cast<Weight>(w));
  return g;
}

TEST(PackingCacheFingerprint, CoversNodeCount) {
  // Identical edge lists, different node counts (node 3 isolated in g4): a
  // fingerprint that only folded edges would collide.
  const std::vector<std::array<std::int64_t, 3>> edges = {{0, 1, 5}, {1, 2, 7}, {0, 2, 3}};
  EXPECT_NE(graph_fingerprint(build(3, edges)), graph_fingerprint(build(4, edges)));
}

TEST(PackingCacheFingerprint, CoversEdgeEndpointsNotJustWeights) {
  // Two triangles-with-tail sharing the exact weight multiset {2,3,5,7} but
  // wired differently: a weight-only fingerprint would collide.
  const WeightedGraph a = build(4, {{0, 1, 2}, {1, 2, 3}, {2, 0, 5}, {2, 3, 7}});
  const WeightedGraph b = build(4, {{0, 1, 2}, {1, 2, 3}, {2, 0, 5}, {1, 3, 7}});
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));

  // Same endpoints, same weights, swapped across edges: order-sensitive
  // pairing of (endpoints, weight) must distinguish them too.
  const WeightedGraph c = build(4, {{0, 1, 3}, {1, 2, 2}, {2, 0, 5}, {2, 3, 7}});
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(c));
}

TEST(PackingCacheFingerprint, CoversWeightMutation) {
  WeightedGraph g = build(3, {{0, 1, 5}, {1, 2, 7}, {0, 2, 3}});
  const std::uint64_t before = graph_fingerprint(g);
  g.set_weight(1, 8);
  EXPECT_NE(graph_fingerprint(g), before);
}

TEST(PackingCacheFingerprint, StructurallyDifferentGraphMissesCache) {
  PackingCache::global().clear();
  // Same weight multiset, different wiring: a solve on `a` must not be able
  // to serve a lookup for `b` even at the same seed and config.
  Rng wa(31);
  WeightedGraph a = erdos_renyi_connected(12, 0.4, wa);
  randomize_weights(a, 1, 1, wa);  // all weights 1: maximally collision-prone
  Rng wb(32);
  WeightedGraph b = erdos_renyi_connected(12, 0.4, wb);
  randomize_weights(b, 1, 1, wb);
  ASSERT_NE(graph_fingerprint(a), graph_fingerprint(b));

  minoragg::Ledger ledger;
  Rng rng(41);
  (void)tree_packing(a, rng, ledger, {});
  const std::int64_t hits_before = PackingCache::global().hits();
  Rng rng2(41);
  minoragg::Ledger ledger2;
  (void)tree_packing(b, rng2, ledger2, {});
  EXPECT_EQ(PackingCache::global().hits(), hits_before);
}

}  // namespace
}  // namespace umc::mincut
