// Experiment E8 (Theorem 12): tree packing.
//
// Reports the number of trees (Θ(log^2 n) after sampling), whether the
// Karger-sampling route was taken, and — the theorem's whp guarantee — the
// fraction of seeds for which some tree 2-respects the true min-cut.
//
// Experiment E23 (perf): the packing producer against its reference.
// BM_TreePackingSeed drives the Minor-Aggregation-simulated Borůvka
// (minoragg::boruvka_mst, all m costs recomputed per iteration) through the
// same greedy loop here in bench code; BM_TreePackingThreads runs the
// production BoruvkaPacker producer at widths 1/2/4/8. All variants export
// the same gated counters — num_trees, ma_rounds, and a checksum over every
// tree's edge list — which CI diffs against the committed baseline: the
// producer at every width must reproduce the reference's numbers exactly,
// only wall/cpu time may move.

#include "baseline/stoer_wagner.hpp"
#include "bench_common.hpp"
#include "mincut/tree_packing.hpp"
#include "minoragg/boruvka.hpp"
#include "util/thread_pool.hpp"

namespace umc {
namespace {

void run_packing(benchmark::State& state, const WeightedGraph& g) {
  const baseline::GlobalMinCut cut = baseline::stoer_wagner(g);
  std::vector<bool> in_side(static_cast<std::size_t>(g.n()), false);
  for (const NodeId v : cut.side) in_side[static_cast<std::size_t>(v)] = true;

  int successes = 0;
  const int seeds = 8;
  std::int64_t trees = 0, sampled = 0, rounds = 0;
  for (auto _ : state) {
    successes = 0;
    for (int s = 0; s < seeds; ++s) {
      Rng rng(100 + static_cast<std::uint64_t>(s));
      minoragg::Ledger ledger;
      const mincut::TreePacking packing = mincut::tree_packing(g, rng, ledger);
      trees = static_cast<std::int64_t>(packing.trees.size());
      sampled = packing.sampled ? 1 : 0;
      rounds = ledger.rounds();
      int best = g.n();
      for (const auto& tree : packing.trees) {
        int crossing = 0;
        for (const EdgeId e : tree)
          crossing += in_side[static_cast<std::size_t>(g.edge(e).u)] !=
                              in_side[static_cast<std::size_t>(g.edge(e).v)]
                          ? 1
                          : 0;
        best = std::min(best, crossing);
      }
      if (best <= 2) ++successes;
    }
    benchmark::DoNotOptimize(successes);
  }
  state.counters["n"] = g.n();
  state.counters["num_trees"] = static_cast<double>(trees);
  state.counters["sampled_route"] = static_cast<double>(sampled);
  state.counters["ma_rounds"] = static_cast<double>(rounds);
  state.counters["two_respect_success_rate"] =
      static_cast<double>(successes) / static_cast<double>(seeds);
}

void BM_PackingSparse(benchmark::State& state) {
  run_packing(state, benchutil::weighted_er(static_cast<NodeId>(state.range(0)), 6.0, 21));
}

void BM_PackingDense(benchmark::State& state) {
  // High min-cut value: exercises the Karger-sampling route (case B).
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(23);
  WeightedGraph g = complete_graph(n);
  randomize_weights(g, 50, 100, rng);
  run_packing(state, g);
}

BENCHMARK(BM_PackingSparse)->Arg(32)->Arg(64)->Arg(128)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PackingDense)->Arg(16)->Arg(24)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// E23: the producer vs the simulated reference, and width scaling.

/// The E23 workload: the direct greedy route (case A) forced on a
/// lambda=136 graph, capped at 512 MST iterations, cache off so every run
/// packs. The measurement is the packing phase itself, not the
/// lambda-seed/sampling setup. chunk_min_edges stays at its production
/// default: at m=386 the fold is a single inline chunk (spawning ~100-edge
/// tasks costs more than the scan). The width column therefore gates
/// counter equality, not wall scaling; the chunk-parallel fold path is
/// pinned by test_tree_packing_threads8 at a forced small grain.
const WeightedGraph& e23_graph() {
  static const WeightedGraph g = benchutil::weighted_er(96, 8.0, 21);
  return g;
}

mincut::PackingConfig e23_config() {
  mincut::PackingConfig config;
  config.use_cache = false;
  config.direct_threshold_c = 1e9;  // force case A: pure greedy packing
  config.max_trees = 512;
  return config;
}

constexpr std::uint64_t kE23Checksum = 0x756d635f45323362ULL;  // "umc_E23b"

/// Gated: every variant must reproduce the same trees bit-for-bit (the
/// checksum is folded to stay exactly representable in a double), the same
/// tree count and the same charged rounds.
void export_producer(benchmark::State& state, std::int64_t trees, std::int64_t rounds,
                     std::uint64_t h) {
  state.counters["n"] = e23_graph().n();
  state.counters["num_trees"] = static_cast<double>(trees);
  state.counters["ma_rounds"] = static_cast<double>(rounds);
  state.counters["checksum"] = static_cast<double>(h % (1u << 30));
}

/// The reference: the greedy loop with a full Minor-Aggregation simulation
/// per Borůvka phase and all m edges re-costed per iteration. The setup
/// charges and the iteration count come from an untimed journaled
/// production call (the setup is shared code, not what E23 compares). The
/// fast-path speedup in EXPERIMENTS.md E23 is this run vs
/// BM_TreePackingThreads/1.
void BM_TreePackingSeed(benchmark::State& state) {
  const WeightedGraph& g = e23_graph();
  mincut::PackingCheckpoint journal;
  {
    Rng rng(7);
    minoragg::Ledger setup;
    (void)mincut::tree_packing(g, rng, setup, e23_config(), [](std::vector<EdgeId>) {},
                               &journal);
  }
  const auto m = static_cast<std::size_t>(g.m());
  std::uint64_t h = 0;
  std::int64_t trees = 0, rounds = 0;
  for (auto _ : state) {
    minoragg::Ledger ledger;
    ledger.charge_sequential(journal.setup_charges);
    std::vector<std::int64_t> load(m, 0);
    std::vector<std::int64_t> cost(m);
    h = kE23Checksum;
    trees = 0;
    for (int it = 0; it < journal.iterations; ++it) {
      for (std::size_t i = 0; i < m; ++i)
        cost[i] = mincut::packing_cost(load[i], g.edge(static_cast<EdgeId>(i)).w);
      for (const EdgeId e : minoragg::boruvka_mst(g, cost, ledger)) {
        ++load[static_cast<std::size_t>(e)];
        h = mix64(h ^ static_cast<std::uint64_t>(e));
      }
      ++trees;
    }
    rounds = ledger.rounds();
    benchmark::DoNotOptimize(h);
  }
  export_producer(state, trees, rounds, h);
}

/// The production producer at an explicit session width (reproducible
/// regardless of the UMC_THREADS knob): chunk-parallel candidate folds +
/// incremental re-costing. Counters must match the reference exactly at
/// every width — only wall/cpu time may change.
void BM_TreePackingThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t h = 0;
  std::int64_t trees = 0, rounds = 0;
  for (auto _ : state) {
    Rng rng(7);
    minoragg::Ledger ledger;
    h = kE23Checksum;
    trees = 0;
    TaskGraph::session(threads, [&] {
      (void)mincut::tree_packing(e23_graph(), rng, ledger, e23_config(),
                                 [&h, &trees](std::vector<EdgeId> tree) {
                                   for (const EdgeId e : tree)
                                     h = mix64(h ^ static_cast<std::uint64_t>(e));
                                   ++trees;
                                 });
    });
    rounds = ledger.rounds();
    benchmark::DoNotOptimize(h);
  }
  export_producer(state, trees, rounds, h);
}

BENCHMARK(BM_TreePackingSeed)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TreePackingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
