// The streaming tier end to end: StreamGraph batch semantics, the cut
// oracle's equivalence with the MA-simulated 2-respecting solver,
// IncrementalMinCut's exactness against Stoer–Wagner on every graph family
// under mutation streams, thread-width determinism of the warm tiers, the
// delta-aware cache adoption path, and the certificate-invalidation drills.
//
// Run with UMC_THREADS=8 as test_stream_threads8 this is the tsan/asan job
// for the warm-solve fan-out (oracle evals into deque slots + tree-index
// ledger merges).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"
#include "mincut/two_respect.hpp"
#include "mincut/witness.hpp"
#include "minoragg/tree_primitives.hpp"
#include "stream/incremental.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace umc {
namespace {

using stream::IncrementalMinCut;
using stream::StreamConfig;
using stream::StreamSolveReport;
using stream::StreamTier;
using stream::UpdateBatch;

mincut::PackingConfig small_packing() {
  mincut::PackingConfig config;
  config.max_trees = 8;
  config.use_cache = false;
  return config;
}

StreamConfig stream_config(std::uint64_t seed, int width) {
  StreamConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = width;
  cfg.packing = small_packing();
  return cfg;
}

/// A deterministic mutation-heavy scenario over any base graph: small-delta
/// reweights, one insert, and one delete of that inserted slot (always safe
/// w.r.t. connectivity). Pure function of (base, seed).
std::vector<UpdateBatch> drift_batches(const WeightedGraph& base, std::uint64_t seed,
                                       int batches) {
  Rng rng(seed);
  std::vector<Weight> w(static_cast<std::size_t>(base.m()));
  for (EdgeId e = 0; e < base.m(); ++e)
    w[static_cast<std::size_t>(e)] = base.edges()[static_cast<std::size_t>(e)].w;
  const EdgeId inserted_slot = base.m();  // first insert lands here
  std::vector<UpdateBatch> out;
  for (int b = 0; b < batches; ++b) {
    UpdateBatch batch;
    for (int k = 0; k < 5; ++k) {
      const auto e = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(base.m())));
      const auto delta = static_cast<Weight>(1 + rng.next_below(3));
      const Weight nw = rng.next_bool(0.5) ? std::max<Weight>(1, w[e] - delta)
                                           : std::min<Weight>(60, w[e] + delta);
      w[e] = nw;
      batch.reweight(static_cast<EdgeId>(e), nw);
    }
    if (b == 1) batch.insert(0, base.n() / 2, 7);
    if (b == 3 && batches > 3) batch.erase(inserted_slot);
    out.push_back(std::move(batch));
  }
  return out;
}

// ---------------------------------------------------------------------------
// StreamGraph batch semantics.

TEST(StreamGraph, EmptyBatchIsANoOp) {
  WeightedGraph g = cycle_graph(5);
  stream::StreamGraph sg(g);
  const std::uint64_t fp = sg.delta_fp();
  const auto delta = sg.apply(UpdateBatch{});
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta.value().ops.empty());
  EXPECT_EQ(sg.delta_fp(), fp);
  EXPECT_EQ(sg.journal_size(), 0);
}

TEST(StreamGraph, DuplicateReweightsResolveInOrder) {
  WeightedGraph g = cycle_graph(4);
  stream::StreamGraph sg(g);
  UpdateBatch batch;
  batch.reweight(0, 9);
  batch.reweight(0, 3);
  const auto delta = sg.apply(batch);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta.value().ops.size(), 2u);
  EXPECT_EQ(delta.value().ops[0].old_w, 1);
  EXPECT_EQ(delta.value().ops[0].new_w, 9);
  EXPECT_EQ(delta.value().ops[1].old_w, 9);
  EXPECT_EQ(delta.value().ops[1].new_w, 3);
  EXPECT_EQ(sg.weight(0), 3);
}

TEST(StreamGraph, AppliedOpsCarryEndpoints) {
  WeightedGraph g = path_graph(4);  // edges 0-1, 1-2, 2-3
  stream::StreamGraph sg(g);
  UpdateBatch batch;
  batch.reweight(1, 5);
  batch.insert(0, 3, 2);
  const auto delta = sg.apply(batch);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta.value().ops[0].u, 1);
  EXPECT_EQ(delta.value().ops[0].v, 2);
  EXPECT_EQ(delta.value().ops[1].u, 0);
  EXPECT_EQ(delta.value().ops[1].v, 3);
  // Deleting the inserted slot reports the same endpoints back.
  UpdateBatch del;
  del.erase(delta.value().ops[1].slot);
  const auto d2 = sg.apply(del);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2.value().ops[0].u, 0);
  EXPECT_EQ(d2.value().ops[0].v, 3);
  EXPECT_EQ(d2.value().ops[0].old_w, 2);
}

TEST(StreamGraph, RejectsSelfEdgeNonPositiveAndDeadSlots) {
  WeightedGraph g = cycle_graph(4);
  stream::StreamGraph sg(g);
  UpdateBatch self;
  self.insert(2, 2, 5);
  EXPECT_FALSE(sg.apply(self).has_value());
  UpdateBatch nonpos;
  nonpos.reweight(0, 0);
  EXPECT_FALSE(sg.apply(nonpos).has_value());
  UpdateBatch extra;
  extra.insert(0, 2, 4);
  const auto ins = sg.apply(extra);
  ASSERT_TRUE(ins.has_value());
  const EdgeId slot = ins.value().ops[0].slot;
  UpdateBatch del;
  del.erase(slot);
  ASSERT_TRUE(sg.apply(del).has_value());
  UpdateBatch dead;
  dead.reweight(slot, 3);
  EXPECT_FALSE(sg.apply(dead).has_value());
}

TEST(StreamGraph, DisconnectingBatchRejectedAtomically) {
  WeightedGraph g = path_graph(4);
  stream::StreamGraph sg(g);
  UpdateBatch batch;
  batch.reweight(0, 9);  // would commit if the batch were valid
  batch.erase(1);        // disconnects the path
  const std::uint64_t fp = sg.delta_fp();
  EXPECT_FALSE(sg.apply(batch).has_value());
  EXPECT_EQ(sg.weight(0), 1);  // nothing from the batch landed
  EXPECT_EQ(sg.delta_fp(), fp);
  EXPECT_TRUE(sg.alive(1));
}

// ---------------------------------------------------------------------------
// The cut oracle vs the MA-simulated solver and a naive enumeration.

TEST(CutOracle, MatchesNaiveEnumerationIncludingRunnerUp) {
  Rng rng(71);
  WeightedGraph g = erdos_renyi_connected(14, 0.3, rng);
  randomize_weights(g, 1, 9, rng);
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<EdgeId> tree = wilson_random_spanning_tree(g, rng);
    const RootedTree t(g, tree, /*root=*/0);
    const mincut::TwoRespectEval ev = mincut::evaluate_two_respecting(t);
    // Naive reference: every 1- and 2-respecting candidate via witness sums.
    Weight best = mincut::kInfWeight;
    Weight second = mincut::kInfWeight;
    const auto consider = [&](Weight val) {
      if (val < best) {
        second = best;
        best = val;
      } else if (val < second) {
        second = val;
      }
    };
    for (NodeId u = 0; u < g.n(); ++u) {
      if (u == t.root()) continue;
      consider(mincut::cut_witness(t, t.parent_edge(u)).value);
      for (NodeId v = u + 1; v < g.n(); ++v) {
        if (v == t.root()) continue;
        consider(mincut::cut_witness(t, t.parent_edge(u), t.parent_edge(v)).value);
      }
    }
    EXPECT_EQ(ev.best.value, best);
    EXPECT_EQ(ev.runner_up, second);
    // The reported side bitmap prices to the reported value.
    Weight crossing = 0;
    for (const Edge& e : g.edges())
      if (ev.side[static_cast<std::size_t>(e.u)] != ev.side[static_cast<std::size_t>(e.v)])
        crossing += e.w;
    EXPECT_EQ(crossing, ev.best.value);
    EXPECT_FALSE(ev.side[static_cast<std::size_t>(t.root())]);
  }
}

TEST(CutOracle, MatchesMASolverAcrossFamilies) {
  Rng rng(72);
  std::vector<WeightedGraph> graphs;
  graphs.push_back(erdos_renyi_connected(20, 0.25, rng));
  graphs.push_back(random_planar_grid(4, 5, 0.4, rng));
  graphs.push_back(ring_expander(24, 3, rng));
  graphs.push_back(complete_graph(10));
  for (WeightedGraph& g : graphs) {
    randomize_weights(g, 1, 12, rng);
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<EdgeId> tree = wilson_random_spanning_tree(g, rng);
      minoragg::Ledger ledger;
      (void)minoragg::orient_tree(g, tree, /*root=*/0, ledger);
      const mincut::CutResult r = mincut::two_respecting_mincut(g, tree, /*root=*/0, ledger);
      const RootedTree t(g, tree, /*root=*/0);
      const mincut::TwoRespectEval ev = mincut::evaluate_two_respecting(t);
      EXPECT_EQ(ev.best.value, r.value);
      EXPECT_LE(ev.best.value, ev.runner_up);
      // The oracle's defining pair must be a real cut of that value.
      EXPECT_EQ(mincut::cut_witness(t, ev.best).value, ev.best.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental solve: exactness + witness validity on every family.

TEST(IncrementalMinCut, ExactOnEveryFamilyUnderDrift) {
  Rng rng(73);
  std::vector<WeightedGraph> graphs;
  graphs.push_back(erdos_renyi_connected(22, 0.25, rng));
  graphs.push_back(random_planar_grid(4, 5, 0.4, rng));
  graphs.push_back(ring_expander(24, 3, rng));
  graphs.push_back(complete_graph(10));
  std::uint64_t fam = 0;
  for (WeightedGraph& g : graphs) {
    randomize_weights(g, 1, 20, rng);
    IncrementalMinCut inc(g, stream_config(/*seed=*/90 + fam, /*width=*/2));
    const std::vector<UpdateBatch> batches = drift_batches(g, 1000 + fam, 6);
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(inc.apply(batch).has_value());
      const StreamSolveReport rep = inc.solve();
      EXPECT_TRUE(rep.certified);
      EXPECT_EQ(rep.value, baseline::stoer_wagner(inc.graph()).value)
          << "family " << fam << " tier " << stream::to_string(rep.tier);
      EXPECT_EQ(rep.exact.value, rep.value);
      // Warm answers expose a concrete witness pair; re-sum it.
      if (rep.tier != StreamTier::kFullSolve && rep.exact.e != kNoEdge &&
          rep.exact.winning_tree >= 0) {
        EXPECT_LE(rep.value, baseline::stoer_wagner(inc.graph()).value);
      }
    }
    const stream::StreamCounters& c = inc.counters();
    EXPECT_EQ(c.batches, 6);
    EXPECT_EQ(c.solves, 6);
    EXPECT_GT(c.warm_hits + c.warm_misses, 0);
    ++fam;
  }
}

TEST(IncrementalMinCut, RepeatSolveServesTrackedCutWithoutReEvaluation) {
  Rng rng(74);
  WeightedGraph g = erdos_renyi_connected(20, 0.3, rng);
  randomize_weights(g, 1, 15, rng);
  IncrementalMinCut inc(g, stream_config(7, 1));
  const StreamSolveReport cold = inc.solve();
  EXPECT_EQ(cold.tier, StreamTier::kFullSolve);
  const std::int64_t resolved_after_cold = inc.counters().trees_resolved;
  const StreamSolveReport again = inc.solve();
  EXPECT_EQ(again.tier, StreamTier::kWarmIncremental);
  EXPECT_TRUE(again.certified);
  EXPECT_EQ(again.value, cold.value);
  // No updates since the last solve: every tree is served from its bound
  // or its tracked argmin cut — zero oracle evals.
  EXPECT_EQ(inc.counters().trees_resolved, resolved_after_cold);
  EXPECT_EQ(again.trees_resolved, 0);
  EXPECT_GT(again.trees_skipped, 0);
}

TEST(IncrementalMinCut, NEqualsTwoRecountsDirectly) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 4);
  g.add_edge(0, 1, 6);
  IncrementalMinCut inc(g, stream_config(5, 1));
  EXPECT_EQ(inc.solve().value, 10);
  UpdateBatch batch;
  batch.reweight(0, 9);
  ASSERT_TRUE(inc.apply(batch).has_value());
  const StreamSolveReport rep = inc.solve();
  EXPECT_EQ(rep.value, 15);
  EXPECT_TRUE(rep.certified);
}

// ---------------------------------------------------------------------------
// Determinism: identical values, tiers, ledgers, and counters at any width.

TEST(IncrementalMinCut, DeterministicAcrossThreadWidths) {
  Rng rng(75);
  WeightedGraph g = erdos_renyi_connected(24, 0.25, rng);
  randomize_weights(g, 1, 18, rng);
  const std::vector<UpdateBatch> batches = drift_batches(g, 4242, 6);

  struct SolveTrace {
    Weight value = 0;
    std::string tier;
    int resolved = 0;
    int skipped = 0;
    int repaired = 0;
    std::int64_t rounds = 0;
    minoragg::Ledger::Counters counters;
  };
  const auto run = [&](int width) {
    std::vector<SolveTrace> traces;
    IncrementalMinCut inc(g, stream_config(11, width));
    for (const UpdateBatch& batch : batches) {
      EXPECT_TRUE(inc.apply(batch).has_value());
      const StreamSolveReport rep = inc.solve();
      traces.push_back({rep.value, stream::to_string(rep.tier), rep.trees_resolved,
                        rep.trees_skipped, rep.trees_repaired, rep.ledger.rounds(),
                        rep.ledger.counters()});
    }
    return traces;
  };

  const std::vector<SolveTrace> base = run(1);
  for (const int width : {2, 4, 8}) {
    const std::vector<SolveTrace> got = run(width);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].value, base[i].value) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].tier, base[i].tier) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].resolved, base[i].resolved) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].skipped, base[i].skipped) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].repaired, base[i].repaired) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].rounds, base[i].rounds) << "width " << width << " batch " << i;
      EXPECT_EQ(got[i].counters, base[i].counters) << "width " << width << " batch " << i;
    }
  }
}

TEST(IncrementalMinCut, ColdSolveMirrorsExactMinCutChargeForCharge) {
  Rng rng(76);
  WeightedGraph g = erdos_renyi_connected(20, 0.3, rng);
  randomize_weights(g, 1, 10, rng);
  // Case A at the default threshold; threshold 0 forces the Karger-sampled
  // route (case B). The guard battery charges a scratch ledger, so
  // verify_full must not move a single charge either.
  for (const double direct_threshold_c : {4.0, 0.0}) {
    for (const int width : {1, 4, 8}) {
      for (const bool verify_full : {false, true}) {
        SCOPED_TRACE("direct_threshold_c " + std::to_string(direct_threshold_c) + " width " +
                     std::to_string(width) + " verify_full " + std::to_string(verify_full));
        StreamConfig cfg = stream_config(21, width);
        cfg.packing.direct_threshold_c = direct_threshold_c;
        cfg.verify_full = verify_full;
        IncrementalMinCut inc(g, cfg);
        const StreamSolveReport rep = inc.solve();

        Rng solver_rng(mix64(cfg.seed ^ 0));  // pack epoch 0 lineage
        minoragg::Ledger ledger;
        const mincut::ExactMinCutResult ref =
            mincut::exact_mincut(g, solver_rng, ledger, cfg.packing, width);
        EXPECT_EQ(rep.value, ref.value);
        EXPECT_EQ(rep.exact.e, ref.e);
        EXPECT_EQ(rep.exact.f, ref.f);
        EXPECT_EQ(rep.exact.winning_tree, ref.winning_tree);
        EXPECT_EQ(rep.exact.num_trees, ref.num_trees);
        EXPECT_EQ(rep.ledger.rounds(), ledger.rounds());
        EXPECT_EQ(rep.ledger.counters(), ledger.counters());
        EXPECT_EQ(rep.certified, verify_full);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fallback drills: every warm answer earns its certificate.

TEST(IncrementalMinCut, CorruptedWarmCandidateFallsBackToFull) {
  Rng rng(77);
  WeightedGraph g = erdos_renyi_connected(20, 0.3, rng);
  randomize_weights(g, 1, 12, rng);
  StreamConfig cfg = stream_config(31, 1);
  cfg.inject_warm_corruption = true;
  IncrementalMinCut inc(g, cfg);
  (void)inc.solve();  // cold full solve
  UpdateBatch batch;
  batch.reweight(0, g.edges()[0].w + 1);
  ASSERT_TRUE(inc.apply(batch).has_value());
  const StreamSolveReport rep = inc.solve();
  EXPECT_EQ(rep.tier, StreamTier::kFullSolve);
  EXPECT_NE(rep.reason.find("invalidated"), std::string::npos);
  EXPECT_EQ(inc.counters().fallbacks, 1);
  EXPECT_EQ(rep.value, baseline::stoer_wagner(inc.graph()).value);
}

TEST(IncrementalMinCut, ThrowingExactTierDegradesInsteadOfEscaping) {
  Rng rng(77);
  WeightedGraph g = erdos_renyi_connected(20, 0.3, rng);
  randomize_weights(g, 1, 12, rng);
  mincut::PackingCache cache;
  StreamConfig cfg = stream_config(31, 1);
  cfg.packing.use_cache = true;
  cfg.packing.cache = &cache;
  // Poison the full tier's first packing key (pack epoch 0) with a tree
  // naming a nonexistent edge: the exact tier throws invariant_error, which
  // the supervisor's ladder must absorb rather than let escape solve().
  mincut::PackingKey key;
  key.graph_fp = mincut::graph_fingerprint(g);
  key.config_fp = mincut::packing_config_fingerprint(cfg.packing);
  key.rng_state = Rng(mix64(cfg.seed ^ 0)).state();
  auto poisoned = std::make_shared<mincut::PackingEntry>();
  poisoned->trees.push_back({g.m()});
  cache.insert(key, std::move(poisoned));

  IncrementalMinCut inc(g, cfg);
  const StreamSolveReport rep = inc.solve();
  EXPECT_EQ(rep.tier, StreamTier::kFullSolve);
  EXPECT_TRUE(rep.certified);
  EXPECT_EQ(rep.value, baseline::stoer_wagner(g).value);
  EXPECT_NE(rep.reason.find("invariant"), std::string::npos) << rep.reason;

  // The degraded answer dropped the warm state: the next solve is a cold
  // full solve on the next epoch's (clean) packing.
  UpdateBatch batch;
  batch.reweight(0, g.edges()[0].w + 1);
  ASSERT_TRUE(inc.apply(batch).has_value());
  const StreamSolveReport next = inc.solve();
  EXPECT_EQ(next.tier, StreamTier::kFullSolve);
  EXPECT_EQ(next.reason, "cold start");
  EXPECT_TRUE(next.certified);
  EXPECT_EQ(next.retries, 0);
  EXPECT_GE(next.exact.winning_tree, 0);  // answered by the exact tier
  EXPECT_EQ(next.value, baseline::stoer_wagner(inc.graph()).value);
}

TEST(IncrementalMinCut, MassExhaustionForcesFullSolve) {
  Rng rng(78);
  WeightedGraph g = erdos_renyi_connected(18, 0.3, rng);
  randomize_weights(g, 1, 10, rng);
  StreamConfig cfg = stream_config(41, 1);
  cfg.rebuild_mass_fraction = 0.0;  // every batch exceeds the margin
  IncrementalMinCut inc(g, cfg);
  (void)inc.solve();
  for (int b = 0; b < 3; ++b) {
    UpdateBatch batch;
    batch.reweight(static_cast<EdgeId>(b), g.edges()[static_cast<std::size_t>(b)].w + 2);
    ASSERT_TRUE(inc.apply(batch).has_value());
    const StreamSolveReport rep = inc.solve();
    EXPECT_EQ(rep.tier, StreamTier::kFullSolve);
    EXPECT_EQ(rep.value, baseline::stoer_wagner(inc.graph()).value);
  }
  EXPECT_EQ(inc.counters().full_solves, 4);
}

TEST(IncrementalMinCut, DeletionsBreakTreesAndRepairKeepsExactness) {
  Rng rng(79);
  WeightedGraph g = complete_graph(12);
  randomize_weights(g, 4, 20, rng);
  IncrementalMinCut inc(g, stream_config(51, 2));
  (void)inc.solve();
  // Delete original edges (safe on a complete graph) until a packing tree
  // breaks; the next warm solve must repair and stay exact.
  std::int64_t repaired_before = inc.counters().trees_repaired;
  for (EdgeId e = 0; e < 3; ++e) {
    UpdateBatch batch;
    batch.erase(e);
    ASSERT_TRUE(inc.apply(batch).has_value());
    const StreamSolveReport rep = inc.solve();
    EXPECT_TRUE(rep.certified);
    EXPECT_EQ(rep.value, baseline::stoer_wagner(inc.graph()).value);
  }
  EXPECT_GE(inc.counters().trees_repaired, repaired_before);
}

TEST(IncrementalMinCut, DeletionsBreakingMostTreesForceFullSolve) {
  Rng rng(81);
  WeightedGraph g = complete_graph(12);
  randomize_weights(g, 4, 20, rng);
  StreamConfig cfg = stream_config(52, 1);
  cfg.rebuild_mass_fraction = 1e9;  // the mass trigger cannot fire first
  IncrementalMinCut inc(g, cfg);
  (void)inc.solve();
  // One batch deletes every edge off the Hamiltonian cycle 0-1-...-11-0, so
  // the graph stays connected: a pack-time tree survives only if it is a
  // path along that cycle, so far more than half the trees break.
  const NodeId n = g.n();
  UpdateBatch batch;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId gap = std::abs(ed.u - ed.v);
    if (gap != 1 && gap != n - 1) batch.erase(e);
  }
  ASSERT_TRUE(inc.apply(batch).has_value());
  const StreamSolveReport rep = inc.solve();
  EXPECT_EQ(rep.tier, StreamTier::kFullSolve);
  EXPECT_NE(rep.reason.find("deletions broke"), std::string::npos) << rep.reason;
  EXPECT_TRUE(rep.certified);
  EXPECT_EQ(rep.value, baseline::stoer_wagner(inc.graph()).value);
  EXPECT_EQ(inc.counters().full_solves, 2);
}

// ---------------------------------------------------------------------------
// Delta-aware cache adoption.

TEST(IncrementalMinCut, DeltaCacheAdoptionReplaysWarmState) {
  Rng rng(80);
  WeightedGraph g = erdos_renyi_connected(20, 0.3, rng);
  randomize_weights(g, 1, 14, rng);
  mincut::PackingCache cache;
  StreamConfig cfg = stream_config(61, 1);
  cfg.packing.use_cache = true;
  cfg.packing.cache = &cache;

  UpdateBatch batch;
  batch.reweight(0, g.edges()[0].w + 2);
  batch.reweight(3, std::max<Weight>(1, g.edges()[3].w - 1));

  IncrementalMinCut a(g, cfg);
  const StreamSolveReport a0 = a.solve();
  EXPECT_EQ(a0.tier, StreamTier::kFullSolve);
  ASSERT_TRUE(a.apply(batch).has_value());
  const StreamSolveReport a1 = a.solve();  // stores a delta entry on success
  ASSERT_EQ(a1.tier, StreamTier::kWarmIncremental);

  IncrementalMinCut b(g, cfg);
  ASSERT_TRUE(b.apply(batch).has_value());  // same base + same journal
  const StreamSolveReport b1 = b.solve();
  EXPECT_EQ(b1.tier, StreamTier::kWarmCache);
  EXPECT_EQ(b1.value, a1.value);
  EXPECT_TRUE(b1.certified);
  EXPECT_EQ(b.counters().delta_cache_hits, 1);

  // The adopted lineage keeps answering exactly under further drift.
  UpdateBatch more;
  more.reweight(1, g.edges()[1].w + 1);
  ASSERT_TRUE(b.apply(more).has_value());
  const StreamSolveReport b2 = b.solve();
  EXPECT_TRUE(b2.certified);
  EXPECT_EQ(b2.value, baseline::stoer_wagner(b.graph()).value);
}

}  // namespace
}  // namespace umc
