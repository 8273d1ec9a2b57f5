#include "mincut/tree_packing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>

#include "baseline/stoer_wagner.hpp"
#include "graph/properties.hpp"
#include "mincut/packing_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

/// Sampling constant C in case (B)'s p = C*log2(n)/lambda.
constexpr double kSampleC = 2.0;

struct PackingMetrics {
  obs::Counter& cache_hits = obs::MetricsRegistry::global().counter(
      "umc_packing_cache_hits_total", {},
      "tree_packing calls served by replaying a PackingCache entry.");
  obs::Counter& cache_misses = obs::MetricsRegistry::global().counter(
      "umc_packing_cache_misses_total", {},
      "tree_packing calls that computed a packing (cache off counts too).");
};

PackingMetrics& packing_metrics() {
  static PackingMetrics m;
  return m;
}

/// Binomial(w, p) sample: exact Bernoulli loop for small w, normal
/// approximation (clamped) for large w.
Weight binomial_sample(Weight w, double p, Rng& rng) {
  if (p >= 1.0) return w;
  if (p <= 0.0) return 0;
  if (w <= 64) {
    Weight s = 0;
    for (Weight i = 0; i < w; ++i) s += rng.next_bool(p) ? 1 : 0;
    return s;
  }
  const double mean = static_cast<double>(w) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  // Box-Muller from two uniform draws.
  const double u1 = std::max(1e-12, rng.next_real());
  const double u2 = rng.next_real();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + sd * z;
  return std::clamp<Weight>(static_cast<Weight>(std::llround(value)), 0, w);
}

/// What the greedy loop packs: g itself in case A, the Karger sample in
/// case B, with one multiplicity per packed edge.
struct Substrate {
  WeightedGraph sample;
  std::vector<EdgeId> present;  // sample edge id -> original edge id, ascending
  std::vector<Weight> multiplicity;
};

Substrate full_substrate(const WeightedGraph& g) {
  Substrate s;
  s.multiplicity.reserve(static_cast<std::size_t>(g.m()));
  for (EdgeId e = 0; e < g.m(); ++e) s.multiplicity.push_back(g.edge(e).w);
  return s;
}

/// The sample graph on the original topology restricted to edges with a
/// nonzero sampled multiplicity (indexed by original edge id).
Substrate sampled_substrate(const WeightedGraph& g, std::span<const Weight> multiplicity) {
  Substrate s;
  s.sample = WeightedGraph(g.n());
  for (EdgeId e = 0; e < g.m(); ++e) {
    const Weight w = multiplicity[static_cast<std::size_t>(e)];
    if (w == 0) continue;
    s.present.push_back(e);
    s.multiplicity.push_back(w);
    s.sample.add_edge(g.edge(e).u, g.edge(e).v, w);
  }
  return s;
}

/// The setup unit: the λ̄ seed, the case A/B choice, the Karger sample (the
/// only randomness of the whole solve) and the greedy iteration target.
/// Assigns every setup field of `unit` except the commit marks
/// (`setup_done`, `rng_after_setup`) and returns the substrate to pack.
Substrate setup(const WeightedGraph& g, Rng& rng, const PackingConfig& config,
                PackingCheckpoint& unit) {
  // Seed lambda (substitution for the [17] approx black box; see header).
  unit.lambda_seed = baseline::stoer_wagner(g).value;
  const std::int64_t logn = ceil_log2(static_cast<std::uint64_t>(g.n()) + 1) + 1;
  const std::int64_t logm = ceil_log2(static_cast<std::uint64_t>(g.m()) + 2) + 1;
  unit.setup_charges = minoragg::Ledger();
  unit.setup_charges.charge(logn * logn);  // the approx-min-cut's polylog round budget
  unit.multiplicity.clear();

  const auto cap = [&config](std::int64_t iters) {
    iters = std::max<std::int64_t>(iters, 1);
    if (config.max_trees > 0) iters = std::min<std::int64_t>(iters, config.max_trees);
    return static_cast<int>(iters);
  };

  unit.sampled = static_cast<double>(unit.lambda_seed) >
                 config.direct_threshold_c * static_cast<double>(logn);
  if (!unit.sampled) {
    // Case (A): lambda = O(log n) — direct greedy packing.
    unit.iterations = cap(2 * unit.lambda_seed * logm);
    return full_substrate(g);
  }

  // Case (B): Karger-sample with p = C log n / lambda, then pack the sample.
  const double base_p =
      kSampleC * static_cast<double>(logn) / static_cast<double>(unit.lambda_seed);
  for (double p = base_p;; p = std::min(1.0, 2 * p)) {
    unit.multiplicity.assign(static_cast<std::size_t>(g.m()), 0);
    for (EdgeId e = 0; e < g.m(); ++e)
      unit.multiplicity[static_cast<std::size_t>(e)] = binomial_sample(g.edge(e).w, p, rng);
    Substrate s = sampled_substrate(g, unit.multiplicity);
    if (!is_connected(s.sample)) {
      UMC_ASSERT_MSG(p < 1.0, "sampling at p = 1 keeps the graph connected");
      continue;  // resample denser (whp never needed at the theorem's C)
    }
    // The sampled min-cut value = Theta(C log n) whp; seed the iteration
    // count from it exactly (same substitution as above).
    unit.iterations = cap(2 * baseline::stoer_wagner(s.sample).value * logm);
    return s;
  }
}

/// The producer proper: the setup unit, then greedy Thorup packing — I
/// iterations of minimum-cost spanning tree where the cost of an edge is
/// its packing load normalized by multiplicity. Charges into `pack_ledger`
/// (all packing charges are additive, so one sequential absorption by the
/// caller is bit-identical to direct charging) and hands each tree, in
/// original edge ids, to `emit`.
///
/// With a `journal`, every unit commits into it (firing `hook` just before
/// the commit): the setup with its own ledger, each iteration with its tree
/// and Borůvka phase count. A replayed prefix therefore absorbs exactly
/// what the live run charged: a committed setup is not re-run, and the
/// committed iterations replay through `emit` before packing continues
/// live. Without one, nothing is journaled and `hook` never fires.
///
/// Each iteration's MST comes from the reusable BoruvkaPacker, whose
/// per-phase candidate folds run chunk-parallel on the ambient TaskGraph
/// session; between iterations only the <= n-1 costs whose load changed
/// are repaired. An iteration's charge is a function of its phase count
/// alone (charge_packing_iteration) plus one packing_iterations bump.
TreePacking pack(const WeightedGraph& g, Rng& rng, minoragg::Ledger& pack_ledger,
                 const PackingConfig& config, const TreeSink& emit, PackingCheckpoint* journal,
                 const CrashHook& hook) {
  PackingCheckpoint unjournaled;
  PackingCheckpoint& ckpt = journal != nullptr ? *journal : unjournaled;
  Substrate sub;
  if (!ckpt.setup_done) {
    sub = setup(g, rng, config, ckpt);
    if (journal != nullptr && hook) hook(SolvePhase::kPackingSetup, 0);
    ckpt.setup_done = true;
    ckpt.rng_after_setup = rng.state();
  } else {
    // Resume: the setup is journaled; skip straight past its randomness.
    rng.set_state(ckpt.rng_after_setup);
    sub = ckpt.sampled ? sampled_substrate(g, ckpt.multiplicity) : full_substrate(g);
  }
  pack_ledger.charge_sequential(ckpt.setup_charges);
  const WeightedGraph& pack_g = ckpt.sampled ? sub.sample : g;
  const auto to_pack_id = [&](EdgeId original) {
    if (!ckpt.sampled) return original;
    return static_cast<EdgeId>(std::lower_bound(sub.present.begin(), sub.present.end(), original) -
                               sub.present.begin());
  };

  // All scratch lives on thread-local arenas: the packer's DSU, worklists,
  // and chunk slots, plus the load/cost rows here, are checked out once per
  // call and keep their capacity across packing sessions, so steady-state
  // iterations allocate only the emitted tree itself.
  const auto m = static_cast<std::size_t>(pack_g.m());
  ScratchLease<BoruvkaPacker> packer;
  packer->set_min_chunk_edges(static_cast<std::size_t>(std::max(config.chunk_min_edges, 1)));
  ScratchLease<std::vector<std::int64_t>> load_lease;
  ScratchLease<std::vector<std::int64_t>> cost_lease;
  std::vector<std::int64_t>& load = *load_lease;
  std::vector<std::int64_t>& cost = *cost_lease;
  load.assign(m, 0);
  const auto recost = [&](std::size_t i) {
    cost[i] = packing_cost(load[i], sub.multiplicity[i]);
  };

  const auto charge_iteration = [&pack_ledger](int phases) {
    charge_packing_iteration(pack_ledger, phases);
    pack_ledger.bump(minoragg::CounterId::packing_iterations);
  };

  // Replay the committed prefix (loads rebuilt from the journaled trees).
  const int committed = ckpt.committed_iterations();
  for (int it = 0; it < committed; ++it) {
    charge_iteration(ckpt.iteration_phases[static_cast<std::size_t>(it)]);
    for (const EdgeId e : ckpt.trees[static_cast<std::size_t>(it)])
      ++load[static_cast<std::size_t>(to_pack_id(e))];
    emit(std::vector<EdgeId>(ckpt.trees[static_cast<std::size_t>(it)]));
  }
  cost.resize(m);
  for (std::size_t i = 0; i < m; ++i) recost(i);

  for (int it = committed; it < ckpt.iterations; ++it) {
    UMC_OBS_SPAN_VAR_L(obs_iter, "mincut/packing_iter", "mincut", it);
    obs_iter.arg("pool_thread", ThreadPool::current_index());
    const BoruvkaPacker::Result r = packer->run(pack_g, cost);
    std::vector<EdgeId> tree(r.tree.begin(), r.tree.end());
    // Incremental re-costing: only the tree's n-1 edges changed load.
    for (const EdgeId e : tree) {
      ++load[static_cast<std::size_t>(e)];
      recost(static_cast<std::size_t>(e));
    }
    if (ckpt.sampled)
      for (EdgeId& e : tree) e = sub.present[static_cast<std::size_t>(e)];
    if (journal != nullptr) {
      if (hook) hook(SolvePhase::kPackingIteration, it);
      journal->trees.push_back(tree);
      journal->iteration_phases.push_back(r.phases);
    }
    charge_iteration(r.phases);
    emit(std::move(tree));
  }

  TreePacking out;
  out.lambda_seed = ckpt.lambda_seed;
  out.sampled = ckpt.sampled;
  return out;
}

/// The cache a config resolves to: its session-scoped instance when set,
/// the process-wide one otherwise.
PackingCache& cache_for(const PackingConfig& config) {
  return config.cache != nullptr ? *config.cache : PackingCache::global();
}

}  // namespace

/// Folds every config field the producer branches on into the cache key.
/// chunk_min_edges and the cache pointer are deliberately absent: chunk
/// granularity cannot change any output, and the pointer selects where
/// entries live, not what they contain — packings computed under either
/// are interchangeable (see PackingConfig).
std::uint64_t packing_config_fingerprint(const PackingConfig& config) {
  std::uint64_t h = 0x7061636b636667ULL;  // "packcfg"
  h = mix64(h ^ std::bit_cast<std::uint64_t>(config.direct_threshold_c));
  h = mix64(h ^ static_cast<std::uint64_t>(config.max_trees));
  return h;
}


TreePacking tree_packing(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                         const PackingConfig& config) {
  TreePacking out;
  TreePacking meta = tree_packing(g, rng, ledger, config,
                                  [&out](std::vector<EdgeId> tree) {
                                    out.trees.push_back(std::move(tree));
                                  });
  out.lambda_seed = meta.lambda_seed;
  out.sampled = meta.sampled;
  return out;
}

TreePacking tree_packing(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                         const PackingConfig& config, const TreeSink& sink,
                         PackingCheckpoint* journal, const CrashHook& hook) {
  UMC_ASSERT(g.n() >= 2);
  UMC_OBS_SPAN_VAR_L(obs_pack, "mincut/tree_packing", "mincut", ledger.rounds());
  obs_pack.arg("n", g.n());

  PackingKey key;
  if (config.use_cache || journal != nullptr) {
    key.graph_fp = graph_fingerprint(g);
    key.config_fp = packing_config_fingerprint(config);
    key.rng_state = rng.state();
  }
  if (journal != nullptr && !journal->empty()) {
    // A journal binds to exactly one solve: resuming with a different
    // graph, config, or generator entry state is a caller bug, and replaying
    // across it would be a silent wrong answer.
    obs_pack.arg("committed", journal->committed_iterations());
    UMC_ASSERT_MSG(journal->graph_fp == key.graph_fp && journal->config_fp == key.config_fp &&
                       journal->rng_entry == key.rng_state,
                   "PackingCheckpoint resumed against a different (graph, config, seed)");
  } else {
    if (journal != nullptr) {
      journal->graph_fp = key.graph_fp;
      journal->config_fp = key.config_fp;
      journal->rng_entry = key.rng_state;
    }
    if (config.use_cache) {
      if (const std::shared_ptr<const PackingEntry> hit = cache_for(config).lookup(key)) {
        // Replay: same trees in the same order, same charges, same generator
        // exit state — indistinguishable from a recompute, at output cost,
        // and strictly better than any journal.
        packing_metrics().cache_hits.inc();
        obs_pack.arg("cache_hit", 1);
        for (const std::vector<EdgeId>& tree : hit->trees) sink(std::vector<EdgeId>(tree));
        ledger.charge_sequential(hit->charges);
        rng.set_state(hit->rng_after);
        TreePacking out;
        out.lambda_seed = hit->lambda_seed;
        out.sampled = hit->sampled;
        return out;
      }
    }
    packing_metrics().cache_misses.inc();
  }

  minoragg::Ledger pack_ledger;
  std::shared_ptr<PackingEntry> entry;
  if (config.use_cache) entry = std::make_shared<PackingEntry>();
  const TreeSink recording = [&entry, &sink](std::vector<EdgeId> tree) {
    entry->trees.push_back(tree);
    sink(std::move(tree));
  };
  const TreePacking out =
      pack(g, rng, pack_ledger, config, entry ? recording : sink, journal, hook);
  if (entry) {
    entry->lambda_seed = out.lambda_seed;
    entry->sampled = out.sampled;
    entry->charges = pack_ledger;
    entry->rng_after = rng.state();
    cache_for(config).insert(key, std::move(entry));
  }
  ledger.charge_sequential(pack_ledger);
  return out;
}

}  // namespace umc::mincut
