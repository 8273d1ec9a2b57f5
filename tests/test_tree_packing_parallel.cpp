// Determinism gate for the tree-packing producer: the BoruvkaPacker may
// fold its per-phase candidate scans on any number of session workers, but
// the packing output — every tree's edge list, the iteration count, the rng
// consumption, and every Ledger counter (full map, not a gated subset) —
// must be bit-identical at widths 1 through 8. A differential re-derives
// every tree of a journaled packing with the Minor-Aggregation-simulated
// Borůvka (`minoragg::boruvka_mst`) and checks its charge. Plus unit tests
// for the PackingCache: hit replay transparency, the fingerprint
// invalidation rule, LRU eviction, and the guard battery's replay-as-hit
// contract.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"
#include "mincut/tree_packing.hpp"
#include "minoragg/boruvka.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace umc {
namespace {

struct PackSnapshot {
  std::vector<std::vector<EdgeId>> trees;
  Weight lambda_seed = 0;
  bool sampled = false;
  std::int64_t rounds = 0;
  minoragg::Ledger::Counters counters;
  Rng::State rng_after{};

  bool operator==(const PackSnapshot&) const = default;
};

/// Runs the streaming packing inside a TaskGraph session of the given
/// width — the shape exact_mincut opens — so the BoruvkaPacker's chunk
/// folds actually land on pool workers (width 1 = inline sequential
/// reference). `journal`, if given, records the packing.
PackSnapshot run_pack(const WeightedGraph& g, int threads, mincut::PackingConfig config,
                      std::uint64_t seed = 7, mincut::PackingCheckpoint* journal = nullptr) {
  Rng rng(seed);
  minoragg::Ledger ledger;
  PackSnapshot s;
  TaskGraph::session(threads, [&] {
    const auto meta = mincut::tree_packing(
        g, rng, ledger, config,
        [&s](std::vector<EdgeId> tree) { s.trees.push_back(std::move(tree)); }, journal);
    s.lambda_seed = meta.lambda_seed;
    s.sampled = meta.sampled;
  });
  s.rounds = ledger.rounds();
  s.counters = ledger.counters();
  s.rng_after = rng.state();
  return s;
}

/// The case-B family: heavy weights push lambda over the direct threshold
/// into the Karger-sampling route.
WeightedGraph sampled_family() {
  Rng rng(13);
  WeightedGraph g = ring_expander(40, 3, rng);
  randomize_weights(g, 40, 90, rng);
  return g;
}

/// Runs a journaled production packing and re-derives each of its trees
/// from the loads of the trees before it: all m costs recomputed, then the
/// simulated `minoragg::boruvka_mst` on the packed substrate (g in case A,
/// the Karger sample in case B). Each must be the journaled tree, charged
/// one round per journaled Borůvka phase plus one and one
/// boruvka_iterations bump per phase. The journaled run must also match an
/// unjournaled one, and its ledger must be the setup plus those charges.
void expect_matches_simulated_reference(const WeightedGraph& g, mincut::PackingConfig config,
                                        int threads) {
  mincut::PackingCheckpoint journal;
  const PackSnapshot got = run_pack(g, threads, config, 7, &journal);
  EXPECT_EQ(got, run_pack(g, threads, config)) << "journaling must not change the packing";
  ASSERT_TRUE(journal.complete());
  ASSERT_EQ(journal.iteration_phases.size(), journal.trees.size());
  EXPECT_EQ(journal.trees, got.trees);

  // The packed substrate, in original edge order: present[i] is the
  // original id of substrate edge i.
  WeightedGraph sub(g.n());
  std::vector<EdgeId> present;
  std::vector<Weight> multiplicity;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Weight w =
        journal.sampled ? journal.multiplicity[static_cast<std::size_t>(e)] : g.edge(e).w;
    if (w == 0) continue;
    present.push_back(e);
    multiplicity.push_back(w);
    sub.add_edge(g.edge(e).u, g.edge(e).v, w);
  }
  ASSERT_TRUE(journal.sampled || sub.m() == g.m());

  minoragg::Ledger want = journal.setup_charges;
  std::vector<std::int64_t> load(static_cast<std::size_t>(sub.m()), 0);
  std::vector<std::int64_t> cost(load.size());
  for (std::size_t it = 0; it < journal.trees.size(); ++it) {
    for (std::size_t i = 0; i < load.size(); ++i)
      cost[i] = mincut::packing_cost(load[i], multiplicity[i]);
    minoragg::Ledger charged;
    std::vector<EdgeId> tree = minoragg::boruvka_mst(sub, cost, charged);
    for (EdgeId& e : tree) {
      ++load[static_cast<std::size_t>(e)];
      e = present[static_cast<std::size_t>(e)];
    }
    const int phases = journal.iteration_phases[it];
    EXPECT_EQ(tree, journal.trees[it]) << "iteration " << it;
    EXPECT_EQ(charged.rounds(), phases + 1) << "iteration " << it;
    EXPECT_EQ(charged.counter("boruvka_iterations"), phases) << "iteration " << it;
    EXPECT_EQ(charged.counters().size(), 1u) << "iteration " << it;
    want.charge_sequential(charged);
    want.bump("packing_iterations");
  }
  EXPECT_EQ(got.rounds, want.rounds());
  EXPECT_EQ(got.counters, want.counters());
}

/// Width sweep 1..8 against the width-1 reference, full counter maps. The
/// cache is disabled so every run actually packs, and the fold granularity
/// is forced down so even these small families split into multiple chunk
/// tasks per phase — otherwise the whole sweep would run single-chunk and
/// never exercise the parallel fold path it exists to pin.
void expect_pack_width_invariant(const WeightedGraph& g, mincut::PackingConfig config = {}) {
  config.use_cache = false;
  config.chunk_min_edges = 16;
  const PackSnapshot want = run_pack(g, 1, config);
  ASSERT_FALSE(want.trees.empty());
  for (int t = 2; t <= 8; ++t) {
    const PackSnapshot got = run_pack(g, t, config);
    EXPECT_EQ(got.trees, want.trees) << "threads=" << t;
    EXPECT_EQ(got.lambda_seed, want.lambda_seed) << "threads=" << t;
    EXPECT_EQ(got.sampled, want.sampled) << "threads=" << t;
    EXPECT_EQ(got.rounds, want.rounds) << "threads=" << t;
    // Full counter-map equality: any scheduling leak into the accounting
    // (phase counts, boruvka_iterations, packing_iterations) names itself.
    EXPECT_EQ(got.counters, want.counters) << "threads=" << t;
    EXPECT_EQ(got.rng_after, want.rng_after) << "threads=" << t;
  }
}

TEST(TreePackingParallel, GridBitIdenticalAcrossWidths) {
  expect_pack_width_invariant(grid_graph(6, 6));
}

TEST(TreePackingParallel, ErdosRenyiBitIdenticalAcrossWidths) {
  Rng rng(23);
  expect_pack_width_invariant(erdos_renyi_connected(48, 0.18, rng));
}

TEST(TreePackingParallel, PlanarBitIdenticalAcrossWidths) {
  Rng rng(5);
  expect_pack_width_invariant(random_planar_grid(7, 7, 0.4, rng));
}

TEST(TreePackingParallel, DominantTreeBitIdenticalAcrossWidths) {
  // Two-tree cap: few, large Borůvka iterations, so the per-phase chunk
  // folds carry the entire width sweep (no across-iteration slack to hide
  // a nondeterministic fold behind).
  Rng rng(11);
  const WeightedGraph g = erdos_renyi_connected(56, 0.3, rng);
  mincut::PackingConfig config;
  config.max_trees = 2;
  expect_pack_width_invariant(g, config);
}

TEST(TreePackingParallel, WeightedSampledCaseBitIdenticalAcrossWidths) {
  // Heavy weights push lambda over the direct threshold into the Karger-
  // sampling route (case B), whose rng draws precede the packing proper —
  // the sweep pins that the chunked folds leave the sampling stream
  // untouched.
  const WeightedGraph g = sampled_family();
  const PackSnapshot probe = run_pack(g, 1, {.use_cache = false});
  ASSERT_TRUE(probe.sampled) << "family must exercise the sampling route";
  expect_pack_width_invariant(g);
}

TEST(TreePackingParallel, ChunkGranularityCannotChangeOutput) {
  // The chunking-invariance half of the determinism argument, tested
  // directly: per-component minima under the strict (cost, edge id) order
  // merge identically under ANY split of the live-edge list, so every
  // granularity — including pathological 1-edge chunks — must produce the
  // same packing. This is also why chunk_min_edges stays out of the
  // PackingCache fingerprint.
  Rng grng(19);
  const WeightedGraph g = erdos_renyi_connected(48, 0.18, grng);
  mincut::PackingConfig config;
  config.use_cache = false;
  const PackSnapshot want = run_pack(g, 4, config);  // default granularity
  for (const int grain : {1, 7, 16, 100000}) {
    config.chunk_min_edges = grain;
    EXPECT_EQ(run_pack(g, 4, config), want) << "chunk_min_edges=" << grain;
  }
}

TEST(TreePackingParallel, FastPathMatchesSimulatedReference) {
  // The differential the producer rests on: every tree the BoruvkaPacker
  // loop packs is the tree the Minor-Aggregation simulation selects under
  // the same loads, charged what that simulation charges — on every family,
  // case B included, at width 1 and width 8.
  Rng grng(29);
  const std::vector<WeightedGraph> families = {
      grid_graph(6, 6),
      erdos_renyi_connected(48, 0.18, grng),
      random_planar_grid(6, 6, 0.5, grng),
      dumbbell(8, 4),
      sampled_family(),
  };
  ASSERT_TRUE(run_pack(families.back(), 1, {.use_cache = false}).sampled);
  for (std::size_t i = 0; i < families.size(); ++i) {
    SCOPED_TRACE("family=" + std::to_string(i));
    expect_matches_simulated_reference(families[i], {.use_cache = false}, 1);
    expect_matches_simulated_reference(families[i], {.use_cache = false, .chunk_min_edges = 16},
                                       8);
  }
}

// ---------------------------------------------------------------------------
// PackingCache unit tests. The cache is process-global and the statistics
// are cumulative, so every test measures hit/miss DELTAS and clears the
// entries it planted.

TEST(PackingCache, HitReplaysBitIdentically) {
  Rng grng(41);
  const WeightedGraph g = erdos_renyi_connected(36, 0.2, grng);
  mincut::PackingConfig config;  // use_cache = true
  auto& cache = mincut::PackingCache::global();
  cache.clear();

  const std::int64_t hits0 = cache.hits();
  const std::int64_t misses0 = cache.misses();
  const PackSnapshot first = run_pack(g, 1, config);
  EXPECT_EQ(cache.hits(), hits0);
  EXPECT_EQ(cache.misses(), misses0 + 1);

  // Same graph, same seed, same config: a hit, and the replay must be
  // observationally identical — trees, order, charges, counters, and the
  // generator fast-forwarded to the same exit state.
  const PackSnapshot replay = run_pack(g, 1, config);
  EXPECT_EQ(cache.hits(), hits0 + 1);
  EXPECT_EQ(cache.misses(), misses0 + 1);
  EXPECT_EQ(replay, first);
  cache.clear();
}

TEST(PackingCache, DifferentSeedOrConfigMisses) {
  Rng grng(43);
  const WeightedGraph g = erdos_renyi_connected(36, 0.2, grng);
  auto& cache = mincut::PackingCache::global();
  cache.clear();
  (void)run_pack(g, 1, {}, /*seed=*/7);

  const std::int64_t hits0 = cache.hits();
  (void)run_pack(g, 1, {}, /*seed=*/8);  // different entry rng state
  mincut::PackingConfig capped;
  capped.max_trees = 3;
  (void)run_pack(g, 1, capped, /*seed=*/7);  // different config fingerprint
  EXPECT_EQ(cache.hits(), hits0);
  cache.clear();
}

TEST(PackingCache, WeightMutationInvalidates) {
  Rng grng(47);
  WeightedGraph g = erdos_renyi_connected(36, 0.2, grng);
  auto& cache = mincut::PackingCache::global();
  cache.clear();
  (void)run_pack(g, 1, {});

  // Any weight mutation changes the graph fingerprint — that IS the
  // invalidation rule; no explicit invalidate call exists or is needed.
  g.set_weight(0, g.edge(0).w + 1);
  const std::int64_t hits0 = cache.hits();
  const std::int64_t misses0 = cache.misses();
  (void)run_pack(g, 1, {});
  EXPECT_EQ(cache.hits(), hits0);
  EXPECT_EQ(cache.misses(), misses0 + 1);
  cache.clear();
}

TEST(PackingCache, LruEvictsBeyondCapacity) {
  Rng grng(53);
  const WeightedGraph a = erdos_renyi_connected(30, 0.2, grng);
  const WeightedGraph b = erdos_renyi_connected(30, 0.2, grng);
  auto& cache = mincut::PackingCache::global();
  cache.clear();
  cache.set_capacity(1);

  (void)run_pack(a, 1, {});
  EXPECT_EQ(cache.size(), 1u);
  (void)run_pack(b, 1, {});  // evicts a's entry
  EXPECT_EQ(cache.size(), 1u);
  const std::int64_t hits0 = cache.hits();
  (void)run_pack(a, 1, {});  // miss: evicted
  EXPECT_EQ(cache.hits(), hits0);
  (void)run_pack(a, 1, {});  // hit: re-inserted by the miss above
  EXPECT_EQ(cache.hits(), hits0 + 1);

  cache.set_capacity(4);  // restore the default for later tests
  cache.clear();
}

TEST(PackingCache, VerifyReplayHitsCache) {
  // The motivating consumer: verify_mincut_result's determinism guard
  // replays the packing from the same seed. The primary solve populates the
  // cache; the replay must be served from it.
  Rng grng(59);
  const WeightedGraph g = erdos_renyi_connected(36, 0.2, grng);
  auto& cache = mincut::PackingCache::global();
  cache.clear();
  const std::int64_t hits0 = cache.hits();

  Rng rng(7);
  minoragg::Ledger ledger;
  const mincut::GuardConfig config;
  const mincut::ExactMinCutResult r = mincut::exact_mincut(g, rng, ledger, config.packing);
  const std::vector<std::string> failures =
      mincut::verify_mincut_result(g, /*seed=*/7, config, r);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_GE(cache.hits(), hits0 + 1) << "the verify replay must be a cache hit";
  cache.clear();
}

TEST(PackingCache, GraphFingerprintSeparatesGraphs) {
  WeightedGraph a(3);
  a.add_edge(0, 1, 1);
  a.add_edge(1, 2, 2);
  WeightedGraph b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 3);  // same topology, one weight differs
  WeightedGraph c(3);
  c.add_edge(0, 1, 1);
  c.add_edge(0, 2, 2);  // same weights, one endpoint differs
  const auto fa = mincut::graph_fingerprint(a);
  EXPECT_EQ(fa, mincut::graph_fingerprint(a));
  EXPECT_NE(fa, mincut::graph_fingerprint(b));
  EXPECT_NE(fa, mincut::graph_fingerprint(c));
}

}  // namespace
}  // namespace umc
