// stream_er: one caller, closed loop, width 1. Every op is apply(batch) +
// solve() on one IncrementalMinCut over E26's graph (ER n=96, average
// degree 8, graph seed 21). A batch holds 8 seeded updates: small-delta
// reweights, plus an edge deletion every fourth batch that is re-inserted
// two batches later, so the Borůvka repair tier runs. The update stream is
// pinned (stream seed 2026); the workload seed is the lineage seed, which
// picks every packing. Varying the stream with the seed instead widened the
// run-to-run spread of ops_per_s by half (see README.md). After each op,
// and outside its timer, a Stoer–Wagner solve of the harness's own mirror
// of the graph checks the answer.

#include <algorithm>
#include <memory>

#include "baseline/stoer_wagner.hpp"
#include "common.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/tree_packing.hpp"
#include "stream/incremental.hpp"
#include "tree/rooted_tree.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using umc::EdgeId;
using umc::NodeId;
using umc::Weight;
using umc::stream::UpdateBatch;
using umc::stream::UpdateKind;

constexpr int kWidth = 1;
constexpr int kMaxTrees = 16;
constexpr int kOpsPerBatch = 8;
constexpr int kSetupRepeats = 3;
constexpr int kMaxVerifySamples = 8;
constexpr std::uint64_t kGraphSeed = 21;    // E26's graph
constexpr std::uint64_t kStreamSeed = 2026;  // the update stream

umc::WeightedGraph base_graph(NodeId n) {
  umc::Rng rng(kGraphSeed);
  umc::WeightedGraph g = umc::erdos_renyi_connected(n, 8.0 / static_cast<double>(n - 1), rng);
  umc::randomize_weights(g, 1, 100, rng);
  return g;
}

/// True when `g` stays connected without edge `skip`.
bool connected_without(const umc::WeightedGraph& g, EdgeId skip) {
  umc::Dsu dsu(g.n());
  NodeId parts = g.n();
  for (EdgeId e = 0; e < g.m(); ++e)
    if (e != skip && dsu.unite(g.edge(e).u, g.edge(e).v)) --parts;
  return parts == 1;
}

/// The update stream, seeded by kStreamSeed. Deleted edges come from a pool
/// of distinct non-bridges that no reweight touches; each is deleted once
/// and re-inserted (as a new slot) two batches later, so at most one edge
/// is missing at a time and the graph stays connected.
std::vector<UpdateBatch> make_stream(const umc::WeightedGraph& base, int batches) {
  umc::Rng rng(kStreamSeed);
  std::vector<EdgeId> order(static_cast<std::size_t>(base.m()));
  for (EdgeId e = 0; e < base.m(); ++e) order[static_cast<std::size_t>(e)] = e;
  rng.shuffle(order);
  const std::size_t pool_size = static_cast<std::size_t>(batches + 3) / 4;
  std::vector<EdgeId> pool;
  std::vector<char> in_pool(order.size(), 0);
  for (const EdgeId e : order) {
    if (pool.size() == pool_size) break;
    if (!connected_without(base, e)) continue;
    pool.push_back(e);
    in_pool[static_cast<std::size_t>(e)] = 1;
  }
  std::vector<EdgeId> reweightable;
  for (EdgeId e = 0; e < base.m(); ++e)
    if (in_pool[static_cast<std::size_t>(e)] == 0) reweightable.push_back(e);

  std::vector<Weight> w(static_cast<std::size_t>(base.m()));
  for (EdgeId e = 0; e < base.m(); ++e) w[static_cast<std::size_t>(e)] = base.edge(e).w;
  std::vector<UpdateBatch> out(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    UpdateBatch& batch = out[static_cast<std::size_t>(b)];
    const std::size_t k = static_cast<std::size_t>(b / 4);
    if (b % 4 == 1 && k < pool.size()) batch.erase(pool[k]);
    if (b % 4 == 3 && k < pool.size()) {
      const umc::Edge& e = base.edge(pool[k]);
      batch.insert(e.u, e.v, e.w);
    }
    while (static_cast<int>(batch.size()) < kOpsPerBatch) {
      const EdgeId e = reweightable[rng.next_below(reweightable.size())];
      const auto i = static_cast<std::size_t>(e);
      const auto delta = static_cast<Weight>(1 + rng.next_below(3));
      w[i] = rng.next_bool(0.5) ? std::max<Weight>(1, w[i] - delta)
                                : std::min<Weight>(100, w[i] + delta);
      batch.reweight(e, w[i]);
    }
  }
  return out;
}

/// The harness's own copy of the evolving graph, kept with plain slot
/// arithmetic (inserts append) and solved by Stoer–Wagner.
class Mirror {
 public:
  explicit Mirror(const umc::WeightedGraph& base) : n_(base.n()) {
    for (const umc::Edge& e : base.edges()) slots_.push_back({e.u, e.v, e.w, true});
  }
  void apply(const UpdateBatch& batch) {
    for (const umc::stream::UpdateOp& op : batch.ops) {
      switch (op.kind) {
        case UpdateKind::kInsert: slots_.push_back({op.u, op.v, op.w, true}); break;
        case UpdateKind::kDelete: slots_[static_cast<std::size_t>(op.edge)].alive = false; break;
        case UpdateKind::kReweight: slots_[static_cast<std::size_t>(op.edge)].w = op.w; break;
      }
    }
  }
  [[nodiscard]] Weight min_cut() const {
    umc::WeightedGraph g(n_);
    for (const Slot& s : slots_)
      if (s.alive) g.add_edge(s.u, s.v, s.w);
    return umc::baseline::stoer_wagner(g).value;
  }

 private:
  struct Slot {
    NodeId u;
    NodeId v;
    Weight w;
    bool alive;
  };
  NodeId n_;
  std::vector<Slot> slots_;
};

/// `seed` is the lineage seed: it picks the cold packing and, through the
/// lineage's epochs, every re-pack after it.
umc::stream::StreamConfig stream_config(std::uint64_t seed) {
  umc::stream::StreamConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = kWidth;
  cfg.packing.max_trees = kMaxTrees;
  // Setup builds the lineage several times; keep each cold start from
  // adopting the previous one's packing through the process-wide cache.
  cfg.packing.use_cache = false;
  return cfg;
}

/// A fresh IncrementalMinCut, cold-solved, plus the mirror at the same
/// state.
struct Lineage {
  std::unique_ptr<umc::stream::IncrementalMinCut> inc;
  std::unique_ptr<Mirror> mirror;
  bool cold_ok = false;
};

Lineage start_lineage(const umc::WeightedGraph& base, std::uint64_t seed) {
  Lineage l;
  l.inc = std::make_unique<umc::stream::IncrementalMinCut>(base, stream_config(seed));
  l.mirror = std::make_unique<Mirror>(base);
  const umc::stream::StreamSolveReport rep = l.inc->solve();
  l.cold_ok = rep.certified && rep.value == l.mirror->min_cut();
  return l;
}

struct Census {
  std::int64_t rounds = 0;
  std::int64_t tiers[3] = {0, 0, 0};
  umc::stream::StreamCounters counters;
};

std::string census_line(const Census& c) {
  return "tier census: " + std::to_string(c.tiers[0]) + " warm_cache / " +
         std::to_string(c.tiers[1]) + " warm / " + std::to_string(c.tiers[2]) +
         " full; trees repaired " + std::to_string(c.counters.trees_repaired) +
         ", skipped " + std::to_string(c.counters.trees_skipped) + ", resolved " +
         std::to_string(c.counters.trees_resolved);
}

struct Params {
  NodeId n = 96;
  int batches = 0;
};

/// Batches per second of --seconds: one pass over the stream takes about
/// --seconds on a 4-vCPU Xeon at width 1 (9-10 ops/s measured). The run is
/// a pure function of (seed, seconds), so its tier census repeats.
constexpr double kBatchesPerSecond = 9.0;

Report run_untraced(const Options& opt, const Params& p) {
  Report report;
  note_environment(report, opt, kWidth);
  umc::WeightedGraph base;
  std::vector<UpdateBatch> stream;
  Lineage lineage;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    base = base_graph(p.n);
    stream = make_stream(base, p.batches);
    lineage = start_lineage(base, opt.seed);
  });

  OpLog log;
  Census census;
  if (!lineage.cold_ok) ++log.failed;
  bool wrong_injected = !opt.inject_wrong_expected;
  for (const UpdateBatch& batch : stream) {
    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    const bool applied = lineage.inc->apply(batch).has_value();
    const umc::stream::StreamSolveReport rep = lineage.inc->solve();
    const double ms = ms_since(t0);
    log.cpu_ms += process_cpu_ms() - cpu0;
    log.latency_ms.push_back(ms);
    log.timed_wall_s += ms / 1e3;
    ++log.attempted;

    lineage.mirror->apply(batch);
    Weight expected = lineage.mirror->min_cut();
    if (!wrong_injected) {
      expected += 1;
      wrong_injected = true;
    }
    if (!applied || !rep.certified || rep.value != expected) ++log.failed;
    census.rounds += rep.ledger.rounds();
    ++census.tiers[static_cast<int>(rep.tier)];
  }
  census.counters = lineage.inc->counters();
  report.add_end_to_end(log, setup_s, peak_rss_mb(), static_cast<double>(census.rounds));
  report.note(census_line(census));
  report.note(std::to_string(p.batches) + " batches; ma_rounds summed over them");
  return report;
}

Report run_traced(const Options& opt, const Params& p) {
  Report report;
  note_environment(report, opt, kWidth);
  const umc::WeightedGraph base = base_graph(p.n);
  const std::vector<UpdateBatch> stream = make_stream(base, p.batches);
  Lineage lineage = start_lineage(base, opt.seed);
  if (!lineage.cold_ok) ++report.failed;

  std::vector<double> apply_ms, warm_ms, full_ms, verify_ms, oracle_ms;
  double solve_wall_ms = 0, solve_cpu_ms = 0;
  RegistryCounters solves;  // deltas around solve() only
  umc::mincut::PackingCache verify_cache;
  bool wrong_injected = !opt.inject_wrong_expected;
  for (const UpdateBatch& batch : stream) {
    Clock::time_point t0 = Clock::now();
    const bool applied = lineage.inc->apply(batch).has_value();
    apply_ms.push_back(ms_since(t0));
    const RegistryCounters before = RegistryCounters::now();
    const double cpu0 = process_cpu_ms();
    t0 = Clock::now();
    const umc::stream::StreamSolveReport rep = lineage.inc->solve();
    const double ms = ms_since(t0);
    solve_cpu_ms += process_cpu_ms() - cpu0;
    solves += RegistryCounters::now().since(before);
    solve_wall_ms += ms;
    (rep.tier == umc::stream::StreamTier::kFullSolve ? full_ms : warm_ms).push_back(ms);

    lineage.mirror->apply(batch);
    Weight expected = lineage.mirror->min_cut();
    if (!wrong_injected) {
      expected += 1;
      wrong_injected = true;
    }
    ++report.attempted;
    if (!applied || !rep.certified || rep.value != expected) ++report.failed;
    if (rep.tier == umc::stream::StreamTier::kFullSolve &&
        static_cast<int>(verify_ms.size()) < kMaxVerifySamples) {
      bool ok = false;
      verify_ms.push_back(time_verify(lineage.inc->graph(), opt.seed + verify_ms.size(),
                                      kMaxTrees, verify_cache, ok));
      if (!ok) ++report.failed;
    }
  }
  // The host-speed cut oracle on the trees of a packing of the final graph.
  {
    const umc::WeightedGraph& g = lineage.inc->graph();
    umc::mincut::PackingConfig cfg;
    cfg.max_trees = kMaxTrees;
    cfg.use_cache = false;
    umc::Rng rng(opt.seed);
    umc::minoragg::Ledger ledger;
    const umc::mincut::TreePacking packing = umc::mincut::tree_packing(g, rng, ledger, cfg);
    for (const std::vector<EdgeId>& tree : packing.trees) {
      const umc::RootedTree t(g, tree, /*root=*/0);
      const Clock::time_point t0 = Clock::now();
      (void)umc::mincut::evaluate_two_respecting(t);
      oracle_ms.push_back(ms_since(t0));
    }
  }

  const umc::stream::StreamCounters& c = lineage.inc->counters();
  const auto ops = static_cast<double>(stream.size());
  const std::map<std::string, double> measured = {
      {"mincut.cut_oracle_ms_per_tree", median(oracle_ms)},
      {"mincut.verify_ms", median(verify_ms)},
      {"minoragg.plan_cache_hit_ratio", solves.plan_hit_ratio()},
      {"util.pool_efficiency", ratio(solve_cpu_ms, kWidth * solve_wall_ms)},
      {"util.tasks_spawned", solves.tasks_spawned / ops},
      {"util.tasks_helped", solves.tasks_helped / ops},
      {"stream.apply_ms", median(apply_ms)},
      {"stream.warm_solve_ms", median(warm_ms)},
      {"stream.full_solve_ms", median(full_ms)},
      {"stream.warm_hit_ratio",
       ratio(static_cast<double>(c.warm_hits), static_cast<double>(c.solves))},
      {"stream.trees_skipped_ratio",
       ratio(static_cast<double>(c.trees_skipped),
             static_cast<double>(c.trees_skipped + c.trees_resolved))},
      {"stream.trees_repaired", static_cast<double>(c.trees_repaired)},
      {"stream.fallbacks", static_cast<double>(c.fallbacks)},
      {"stream.full_solves", static_cast<double>(c.full_solves)},
  };
  add_layers(report, measured,
             {{"baseline.", "warm ops reuse the lineage's packing; cold_planar times the seed"},
              {"mincut.packing", "warm ops reuse the lineage's packing; cold_planar times it"},
              {"mincut.two_respect", "warm ops re-price tracked cuts; cold_planar times the solver"},
              {"mincut.unattributed", "measured on cold_planar"},
              {"server.", "no daemon on this workload"},
              {"fault.", "no supervisor on this workload"}});
  report.note(std::to_string(warm_ms.size()) + " warm / " + std::to_string(full_ms.size()) +
              " full ops over " + std::to_string(stream.size()) + " batches; counters include " +
              "the lineage's cold start");
  report.note("verify_ms: median of " + std::to_string(verify_ms.size()) +
              " verify_mincut_result calls on full-tier graph states; cut oracle: " +
              std::to_string(oracle_ms.size()) + " trees of the final graph");
  return report;
}

}  // namespace

Report run_stream_er(const Options& opt) {
  const Params p = opt.tiny ? Params{24, 8}
                            : Params{96, std::max(8, static_cast<int>(kBatchesPerSecond * opt.seconds))};
  return opt.trace ? run_traced(opt, p) : run_untraced(opt, p);
}

}  // namespace perfbench
