#include "stream/incremental.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <utility>

#include "fault/supervisor.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/packing_cache.hpp"
#include "mincut/witness.hpp"
#include "obs/metrics.hpp"
#include "tree/rooted_tree.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::stream {

namespace {

// Keyspace tag folded into every delta-aware PackingKey.delta_fp. A plain
// tree_packing key always carries delta_fp == 0; mixing the journal fold
// with this tag keeps the stream keyspace disjoint even at delta 0 (where a
// stream entry — only `trees` and `tree_values`, no charges, no rng exit
// state — would otherwise overwrite the plain packing entry under the same
// key).
constexpr std::uint64_t kStreamDeltaTag = 0x73747265616dULL;  // "stream"

// Full re-solve once deletions broke (cumulatively, repairs included) more
// than this fraction of the pack-time trees.
constexpr double kRebuildTreeFraction = 0.5;

struct StreamMetrics {
  obs::Counter& batches = obs::MetricsRegistry::global().counter(
      "umc_stream_batches_total", {},
      "Update batches applied to incremental min-cut lineages.");
  obs::Counter& updates = obs::MetricsRegistry::global().counter(
      "umc_stream_updates_total", {},
      "Edge updates (inserts + deletes + reweights) committed to stream "
      "graphs.");
  obs::Counter& warm_hits = obs::MetricsRegistry::global().counter(
      "umc_stream_warm_hits_total", {},
      "Stream solves answered by a warm tier (delta-cache replay or "
      "incremental repair).");
  obs::Counter& warm_misses = obs::MetricsRegistry::global().counter(
      "umc_stream_warm_misses_total", {},
      "Stream solves that went to the full re-pack tier (cold starts "
      "included).");
  obs::Counter& delta_cache_hits = obs::MetricsRegistry::global().counter(
      "umc_stream_delta_cache_hits_total", {},
      "Warm answers served by the delta-aware PackingCache keyspace.");
  obs::Counter& fallbacks = obs::MetricsRegistry::global().counter(
      "umc_stream_fallbacks_total", {},
      "Warm solve attempts invalidated by their own validation (witness "
      "re-sum, surviving-witness bound, spanning check) and re-answered by "
      "the full tier.");
  obs::Counter& full_solves = obs::MetricsRegistry::global().counter(
      "umc_stream_full_solves_total", {},
      "Full re-pack solves executed by stream lineages.");
  obs::Counter& trees_repaired = obs::MetricsRegistry::global().counter(
      "umc_stream_trees_repaired_total", {},
      "Packing trees re-run through Boruvka because a deletion tombstoned "
      "one of their slots.");
  obs::Counter& trees_resolved = obs::MetricsRegistry::global().counter(
      "umc_stream_trees_resolved_total", {},
      "Per-tree 2-respecting solves executed by stream lineages (all "
      "tiers).");
  obs::Counter& trees_skipped = obs::MetricsRegistry::global().counter(
      "umc_stream_trees_skipped_total", {},
      "Per-tree 2-respecting solves pruned by the decrease-mass lower "
      "bound.");
};

StreamMetrics& stream_metrics() {
  static StreamMetrics m;
  return m;
}

}  // namespace

const char* to_string(StreamTier t) {
  switch (t) {
    case StreamTier::kWarmCache: return "warm_cache";
    case StreamTier::kWarmIncremental: return "warm";
    case StreamTier::kFullSolve: return "full";
  }
  return "?";
}

IncrementalMinCut::IncrementalMinCut(const WeightedGraph& base, StreamConfig cfg)
    : sg_(base), cfg_(std::move(cfg)) {
  UMC_ASSERT_MSG(base.n() >= 2, "incremental min-cut needs n >= 2");
}

Expected<BatchDelta> IncrementalMinCut::apply(const UpdateBatch& batch) {
  Expected<BatchDelta> applied = sg_.apply(batch);
  if (!applied.has_value()) return applied;
  const BatchDelta& delta = applied.value();

  ++counters_.batches;
  counters_.updates += static_cast<std::int64_t>(delta.ops.size());

  for (const AppliedOp& op : delta.ops) {
    // Inserts and deletes are pure increases and decreases: old_w/new_w
    // are 0 on the missing side.
    const Weight dw = op.new_w - op.old_w;
    if (dw < 0) {
      decrease_mass_ -= dw;
    } else {
      increase_mass_ += dw;
    }
    switch (op.kind) {
      case UpdateKind::kReweight:
        ++counters_.reweights;
        break;
      case UpdateKind::kInsert:
        ++counters_.inserts;
        break;
      case UpdateKind::kDelete:
        ++counters_.deletes;
        if (packed_) {
          // A tombstoned slot breaks every tree that selected it; repairs
          // happen lazily at the next warm solve. Trees keep sorted slot
          // ids, so membership is a binary search.
          for (TreeState& t : trees_)
            if (!t.broken) t.broken = std::binary_search(t.edges.begin(), t.edges.end(), op.slot);
        }
        break;
    }
    // Re-price every tracked argmin cut: a bipartition's value moves by
    // exactly new_w - old_w when the touched edge crosses it (inserts and
    // deletes included — old_w/new_w are 0 on the missing side). O(trees)
    // per op keeps each tree's tracked value EXACT between evals, which is
    // what lets warm solves skip re-evaluation without losing exactness.
    if (packed_) {
      const auto ou = static_cast<std::size_t>(op.u);
      const auto ov = static_cast<std::size_t>(op.v);
      for (TreeState& t : trees_)
        if (!t.side.empty() && t.side[ou] != t.side[ov]) t.tracked += op.new_w - op.old_w;
    }
  }

  stream_metrics().batches.inc();
  stream_metrics().updates.inc(static_cast<std::int64_t>(delta.ops.size()));
  return applied;
}

StreamSolveReport IncrementalMinCut::solve() {
  ++counters_.solves;
  StreamSolveReport rep;
  const WeightedGraph& g = sg_.current();

  if (g.n() == 2) {
    // Single possible cut at any update state; one aggregation round reads
    // it off — no packing to warm or invalidate.
    rep.tier = StreamTier::kWarmIncremental;
    rep.reason = "n = 2: direct recount";
    rep.ledger.charge(1);
    rep.value = g.total_weight();
    rep.certified = true;
    rep.exact.value = rep.value;
    rep.exact.num_trees = 0;
    ++counters_.warm_hits;
    stream_metrics().warm_hits.inc();
    return rep;
  }

  if (!packed_) {
    if (!adopt_from_cache(rep)) full_solve(rep, "cold start");
  } else if (cfg_.rebuild_mass_fraction <= 0.0 ||
             static_cast<double>(decrease_mass_ + increase_mass_) >
                 cfg_.rebuild_mass_fraction * static_cast<double>(lambda_pack_)) {
    full_solve(rep, "update mass " + std::to_string(decrease_mass_ + increase_mass_) +
                        " exceeded the certificate margin (lambda " +
                        std::to_string(lambda_pack_) + ")");
  } else {
    // Cumulative: repaired trees lost their pack-time coverage guarantee
    // just as surely as currently-broken ones, so both count against the
    // rebuild fraction.
    const auto broken =
        repaired_since_pack_ + static_cast<std::int64_t>(std::count_if(
                                   trees_.begin(), trees_.end(),
                                   [](const TreeState& t) { return t.broken; }));
    if (static_cast<double>(broken) >
        kRebuildTreeFraction * static_cast<double>(trees_.size())) {
      full_solve(rep, "deletions broke " + std::to_string(broken) + " of " +
                          std::to_string(trees_.size()) + " pack-time trees");
    } else {
      const WarmOutcome warm = warm_solve(rep);
      if (!warm.ok) {
        ++counters_.fallbacks;
        stream_metrics().fallbacks.inc();
        full_solve(rep, "invalidated: " + warm.why);
      }
    }
  }
  return rep;
}

// One SolveSupervisor solve. A first-try exact answer hands back its
// per-tree trees and values — the warm state the next batches start from;
// any other answer is served from the ladder and drops the warm state, since
// only that packing belongs to this lineage's seed.
void IncrementalMinCut::full_solve(StreamSolveReport& rep, const std::string& reason) {
  const WeightedGraph& g = sg_.current();
  rep.tier = StreamTier::kFullSolve;
  rep.reason = reason;
  ++counters_.warm_misses;
  ++counters_.full_solves;
  stream_metrics().warm_misses.inc();
  stream_metrics().full_solves.inc();

  fault::SupervisorConfig scfg;
  scfg.seed = full_seed();
  scfg.num_threads = cfg_.num_threads;
  scfg.packing = cfg_.packing;
  scfg.verify = cfg_.verify_full;
  ++pack_epoch_;  // the next full pack draws a fresh lineage either way
  mincut::PerTreeCuts per_tree;
  const fault::SolveReport report = fault::SolveSupervisor(scfg).solve(g, nullptr, &per_tree);

  rep.value = report.value;
  rep.certified = report.certified;
  rep.retries = report.retries;
  rep.exact = report.exact;
  rep.exact.value = report.value;
  rep.trees = report.exact.num_trees;
  rep.trees_resolved += rep.trees;
  rep.ledger.charge_sequential(report.ledger);
  counters_.trees_resolved += rep.trees;
  stream_metrics().trees_resolved.inc(rep.trees);

  if (per_tree.trees.empty()) {
    rep.reason += std::string("; supervisor tier ") + fault::to_string(report.tier) + " after " +
                  std::to_string(report.retries) + " retries" +
                  (report.reason.empty() ? "" : ": " + report.reason);
    packed_ = false;
    trees_.clear();
    last_side_.clear();
    return;
  }

  // Adopt: trees move to stable slot-id space (slot order preserves the
  // materialized id order, so sortedness carries over), the journal
  // re-bases, and the mass counters restart — the packing is the new base
  // certificate.
  trees_.clear();
  trees_.reserve(per_tree.trees.size());
  for (std::size_t i = 0; i < per_tree.trees.size(); ++i) {
    TreeState& t = trees_.emplace_back();
    t.edges.reserve(per_tree.trees[i].size());
    for (const EdgeId e : per_tree.trees[i]) t.edges.push_back(sg_.slot_of_current(e));
    t.value = per_tree.cuts[i].value;
  }
  repaired_since_pack_ = 0;
  lambda_pack_ = report.value;
  base_rng_state_ = Rng(scfg.seed).state();
  packed_ = true;
  sg_.rebase();
  decrease_mass_ = 0;
  increase_mass_ = 0;
  adopt_winner(g, report.exact.winning_tree, report.value);
  store_delta_entry();
}

bool IncrementalMinCut::adopt_from_cache(StreamSolveReport& rep) {
  if (!cfg_.packing.use_cache) return false;
  mincut::PackingCache& cache =
      cfg_.packing.cache != nullptr ? *cfg_.packing.cache : mincut::PackingCache::global();
  mincut::PackingKey key;
  key.graph_fp = sg_.base_fp();
  key.config_fp = mincut::packing_config_fingerprint(cfg_.packing);
  key.rng_state = Rng(full_seed()).state();
  key.delta_fp = mix64(sg_.delta_fp() ^ kStreamDeltaTag);
  const std::shared_ptr<const mincut::PackingEntry> hit = cache.lookup(key);
  if (hit == nullptr || hit->trees.empty() || hit->tree_values.size() != hit->trees.size())
    return false;

  // The donor's slot space must embed into ours (same base + same journal
  // makes this a key-match invariant; checked anyway — a cache is untrusted
  // state).
  for (const std::vector<EdgeId>& tree : hit->trees)
    for (const EdgeId slot : tree)
      if (slot < 0 || slot >= sg_.slots() || !sg_.alive(slot)) return false;

  std::size_t winner = hit->trees.size();
  Weight best_value = mincut::kInfWeight;
  for (std::size_t i = 0; i < hit->tree_values.size(); ++i) {
    if (hit->tree_values[i] < best_value) {  // strict: lowest index wins ties
      best_value = hit->tree_values[i];
      winner = i;
    }
  }
  if (winner == hit->trees.size()) return false;  // every stored value stale

  // Certify the replay: a deterministic oracle re-evaluation of the winner
  // tree must reproduce the stored minimum exactly. Any divergence is
  // treated as a miss, never served.
  const WeightedGraph& g = sg_.current();
  minoragg::Ledger witness_ledger;
  try {
    const RootedTree t(g, current_edges(hit->trees[winner]), /*root=*/0);
    const mincut::TwoRespectEval ev = mincut::evaluate_two_respecting(t);
    if (ev.best.value != best_value) return false;
    witness_ledger.charge(1);  // the certification pass: one aggregation round
    witness_ledger.bump(minoragg::CounterId::stream_tree_evals);

    trees_.assign(hit->trees.size(), {});
    for (std::size_t i = 0; i < trees_.size(); ++i) {
      trees_[i].edges = hit->trees[i];
      trees_[i].value = hit->tree_values[i];
      trees_[i].dec_at = decrease_mass_;
    }
    last_side_ = ev.side;
    record_eval(trees_[winner], ev);
    repaired_since_pack_ = 0;
    lambda_pack_ = hit->lambda_seed;
    base_rng_state_ = key.rng_state;
    packed_ = true;

    rep.tier = StreamTier::kWarmCache;
    rep.reason = "delta-cache replay";
    rep.value = ev.best.value;
    rep.certified = true;
    rep.trees = static_cast<int>(trees_.size());
    rep.trees_resolved = 1;
    rep.trees_skipped = static_cast<int>(trees_.size()) - 1;
    rep.exact.value = ev.best.value;
    rep.exact.e = ev.best.e;
    rep.exact.f = ev.best.f;
    rep.exact.winning_tree = static_cast<int>(winner);
    rep.exact.num_trees = static_cast<int>(trees_.size());
    rep.ledger.charge(1);  // the replay itself: one aggregation round
    rep.ledger.charge_sequential(witness_ledger);
    rep.ledger.bump(minoragg::CounterId::stream_delta_cache_hits);
  } catch (const invariant_error&) {
    return false;
  }

  ++counters_.warm_hits;
  ++counters_.delta_cache_hits;
  counters_.trees_resolved += 1;
  counters_.trees_skipped += static_cast<std::int64_t>(trees_.size()) - 1;
  stream_metrics().warm_hits.inc();
  stream_metrics().delta_cache_hits.inc();
  stream_metrics().trees_resolved.inc();
  stream_metrics().trees_skipped.inc(static_cast<std::int64_t>(trees_.size()) - 1);
  return true;
}

// The kWarmIncremental tier. Two invariants back its exactness:
//
//  * Skip rule (within the packing): every solved tree keeps its argmin
//    bipartition whose EXACT current value is re-priced per op in apply()
//    (a cut moves by Δw exactly when the edge crosses it), plus the
//    runner-up over all its other candidates from the oracle eval. Between
//    that eval (decrease mass D_then) and now (D_now), any OTHER candidate
//    of the tree lost at most D_now - D_then, so the tree's current
//    minimum is >= min(tracked, runner_up - (D_now - D_then)). Trees whose
//    bound cannot beat the floor — the min over tracked values, itself a
//    set of real cuts at exact values — are skipped but keep competing
//    through their tracked value, so the served answer is still the true
//    min over trees. The re-evaluation set is decided in one pass before
//    any work is spawned, so the set — and every ledger charge — is
//    independent of thread width.
//
//  * Coverage margin (packing vs the graph): the pack-time packing
//    2-respects every cut whose PACK-TIME value is < 1.5 * lambda_pack
//    (the Karger/Thorup coverage radius the base solver's exactness also
//    rests on, guard-verified at pack time). For the current min cut C*,
//    w_pack(C*) <= w_now(C*) + D <= U + D where U is the surviving-witness
//    upper bound and D the decrease mass since the pack. So while
//    U + D < 1.5 * lambda_pack, C* is still structurally 2-respected by a
//    pack-time tree and min-over-trees is the global minimum. The check is
//    a runtime certificate: when the margin is exhausted the warm answer
//    is refused and the solve falls back to a full re-pack.
IncrementalMinCut::WarmOutcome IncrementalMinCut::warm_solve(StreamSolveReport& rep) {
  const WeightedGraph& g = sg_.current();
  minoragg::Ledger& ledger = rep.ledger;
  const Weight bound = surviving_witness_bound(g);
  ledger.charge(1);  // re-pricing the surviving witness: one aggregation round
  {
    const Weight dec = decrease_mass_;
    if (bound + dec >= lambda_pack_ + lambda_pack_ / 2)
      return {false, "coverage margin exhausted: witness bound " + std::to_string(bound) +
                         " + decrease mass " + std::to_string(dec) +
                         " >= 1.5 * lambda_pack " + std::to_string(lambda_pack_)};
  }
  repair_broken_trees(rep, ledger);

  const std::size_t num_trees = trees_.size();
  UMC_ASSERT(num_trees > 0);

  std::vector<std::vector<EdgeId>> cur_trees(num_trees);
  for (std::size_t i = 0; i < num_trees; ++i) cur_trees[i] = current_edges(trees_[i].edges);

  // The candidate floor: every tracked argmin cut is a real cut held at
  // its exact current value, so their minimum bounds the answer from above
  // before any re-evaluation happens.
  Weight floor = mincut::kInfWeight;
  for (const TreeState& t : trees_)
    if (!t.side.empty()) floor = std::min(floor, t.tracked);

  // One pass picks the re-evaluation set (see the invariant above): trees
  // with no state (repaired, or adopted from a cache entry that only
  // stores values) always re-evaluate; the rest only when their lower
  // bound could still beat the floor.
  std::vector<std::size_t> solve_set;
  for (std::size_t i = 0; i < num_trees; ++i) {
    const TreeState& t = trees_[i];
    if (t.value == mincut::kInfWeight) {
      solve_set.push_back(i);
      continue;
    }
    const Weight ddec = decrease_mass_ - t.dec_at;
    const Weight lb = t.side.empty() ? t.value - ddec : std::min(t.tracked, t.runner - ddec);
    if (lb < floor) solve_set.push_back(i);
  }

  const int width = std::max(1, cfg_.num_threads);
  std::deque<mincut::TwoRespectEval> evals(solve_set.size());
  std::deque<minoragg::Ledger> eval_ledgers(solve_set.size());
  if (!solve_set.empty()) {
    (void)TaskGraph::session(width, [&] {
      TaskGroup tasks;
      for (std::size_t k = 0; k < solve_set.size(); ++k) {
        const std::vector<EdgeId>& edges = cur_trees[solve_set[k]];
        mincut::TwoRespectEval& slot = evals[k];
        minoragg::Ledger& task_ledger = eval_ledgers[k];
        tasks.spawn([&g, &edges, &slot, &task_ledger] {
          const RootedTree t(g, edges, /*root=*/0);
          slot = mincut::evaluate_two_respecting(t);
          task_ledger.charge(1);  // one aggregation-round equivalent
          task_ledger.bump(minoragg::CounterId::stream_tree_evals);
        });
      }
      tasks.join();
    });
  }
  for (std::size_t k = 0; k < solve_set.size(); ++k) {
    ledger.charge_sequential(eval_ledgers[k]);
    record_eval(trees_[solve_set[k]], std::move(evals[k]));
  }

  // Final min over ALL trees: a re-evaluated tree tracks its fresh minimum,
  // so fresh minima and tracked values compete on equal footing (both are
  // exact); strict < keeps the lowest tree index.
  Weight best_value = mincut::kInfWeight;
  std::size_t winner = num_trees;
  for (std::size_t i = 0; i < num_trees; ++i) {
    const Weight cand = trees_[i].side.empty() ? mincut::kInfWeight : trees_[i].tracked;
    if (cand < best_value) {
      best_value = cand;
      winner = i;
    }
  }
  UMC_ASSERT(winner < num_trees && best_value < mincut::kInfWeight);

  const int resolved = static_cast<int>(solve_set.size());
  rep.trees_resolved += resolved;
  counters_.trees_resolved += resolved;
  const int skipped = static_cast<int>(num_trees) - resolved;
  stream_metrics().trees_resolved.inc(resolved);

  const TreeState& won = trees_[winner];
  const EdgeId win_e = won.cut_e == kNoEdge ? kNoEdge : sg_.current_of_slot(won.cut_e);
  const EdgeId win_f = won.cut_f == kNoEdge ? kNoEdge : sg_.current_of_slot(won.cut_f);

  Weight value = best_value;
  if (cfg_.inject_warm_corruption) value += 1;  // drill: validation must catch

  // Validation — every warm answer earns its certificate before serving:
  // spanning winner (RootedTree), cut = cov (an O(m) witness re-sum, which
  // for a tracked winner also audits the per-op re-pricing arithmetic
  // against the ground truth), and the surviving-witness upper bound (the
  // previous winning bipartition re-priced at current weights is a real
  // cut, so the new min-cut cannot exceed it).
  if (win_e == kNoEdge) return {false, "winner reported no defining tree edge"};
  try {
    const RootedTree t(g, cur_trees[winner], /*root=*/0);
    const mincut::CutWitness w = mincut::cut_witness(t, mincut::CutResult{value, win_e, win_f});
    ledger.charge(1);  // witness re-sum: one aggregation round
    if (w.value != value)
      return {false, "cut-cov mismatch: candidate " + std::to_string(value) +
                         ", witness crossing sum " + std::to_string(w.value)};
    if (value > bound)
      return {false, "candidate " + std::to_string(value) +
                         " above the surviving-witness bound " + std::to_string(bound)};
    last_side_ = w.side;
  } catch (const invariant_error& e) {
    return {false, std::string("winning tree not spanning: ") + e.what()};
  }

  rep.tier = StreamTier::kWarmIncremental;
  rep.value = value;
  rep.certified = true;
  rep.trees = static_cast<int>(num_trees);
  rep.trees_skipped = skipped;
  rep.exact.value = value;
  rep.exact.e = win_e;
  rep.exact.f = win_f;
  rep.exact.winning_tree = static_cast<int>(winner);
  rep.exact.num_trees = static_cast<int>(num_trees);
  ledger.bump(minoragg::CounterId::stream_warm_solves);
  ledger.bump(minoragg::CounterId::stream_trees_resolved, resolved);
  if (skipped > 0) ledger.bump(minoragg::CounterId::stream_trees_skipped, skipped);

  ++counters_.warm_hits;
  counters_.trees_skipped += skipped;
  stream_metrics().warm_hits.inc();
  stream_metrics().trees_skipped.inc(skipped);
  store_delta_entry();
  return {true, {}};
}

// Re-runs ONLY the broken trees' Boruvka iterations, under packing loads
// rebuilt from the surviving trees — the repaired tree slots into the same
// greedy min-load role the broken one held. Multiplicity is the current
// edge weight (the direct-packing cost rule); repairs carry no parity
// contract with the original pack, only determinism.
void IncrementalMinCut::repair_broken_trees(StreamSolveReport& rep, minoragg::Ledger& ledger) {
  std::vector<std::size_t> broken;
  for (std::size_t i = 0; i < trees_.size(); ++i)
    if (trees_[i].broken) broken.push_back(i);
  if (broken.empty()) return;

  const WeightedGraph& g = sg_.current();
  const auto m = static_cast<std::size_t>(g.m());
  const std::span<const Edge> edges = g.edges();
  ScratchLease<std::vector<std::int64_t>> load_lease;
  std::vector<std::int64_t>& load = *load_lease;
  load.assign(m, 0);
  for (const TreeState& t : trees_) {
    if (t.broken) continue;
    for (const EdgeId slot : t.edges) ++load[static_cast<std::size_t>(sg_.current_of_slot(slot))];
  }
  ScratchLease<std::vector<std::int64_t>> cost_lease;
  std::vector<std::int64_t>& cost = *cost_lease;
  cost.assign(m, 0);
  for (std::size_t e = 0; e < m; ++e) cost[e] = mincut::packing_cost(load[e], edges[e].w);

  ScratchLease<BoruvkaPacker> packer;
  packer->set_min_chunk_edges(static_cast<std::size_t>(std::max(cfg_.packing.chunk_min_edges, 1)));
  for (const std::size_t i : broken) {
    const BoruvkaPacker::Result r = packer->run(g, cost);
    mincut::charge_packing_iteration(ledger, r.phases);
    ledger.bump(minoragg::CounterId::stream_trees_repaired);
    std::vector<EdgeId> slots;
    slots.reserve(r.tree.size());
    for (const EdgeId e : r.tree) {
      slots.push_back(sg_.slot_of_current(e));
      const auto idx = static_cast<std::size_t>(e);
      ++load[idx];
      cost[idx] = mincut::packing_cost(load[idx], edges[idx].w);
    }
    // Unsolved: must re-evaluate before serving (the old argmin belonged
    // to the dead tree).
    trees_[i] = {};
    trees_[i].edges = std::move(slots);
  }
  rep.trees_repaired += static_cast<int>(broken.size());
  counters_.trees_repaired += static_cast<std::int64_t>(broken.size());
  repaired_since_pack_ += static_cast<std::int64_t>(broken.size());
  stream_metrics().trees_repaired.inc(static_cast<std::int64_t>(broken.size()));
}

void IncrementalMinCut::adopt_winner(const WeightedGraph& g, int winner, Weight value) {
  UMC_ASSERT(winner >= 0 && static_cast<std::size_t>(winner) < trees_.size());
  TreeState& t = trees_[static_cast<std::size_t>(winner)];
  mincut::TwoRespectEval ev =
      mincut::evaluate_two_respecting(RootedTree(g, current_edges(t.edges), /*root=*/0));
  UMC_ASSERT_MSG(ev.best.value == value,
                 "cut oracle must reproduce the adopted winner's MA-solved value");
  // Seed the winner's tracked state so the next warm solve starts from an
  // exact candidate instead of re-evaluating the whole packing.
  last_side_ = ev.side;
  record_eval(t, std::move(ev));
}

void IncrementalMinCut::record_eval(TreeState& t, mincut::TwoRespectEval ev) const {
  t.value = ev.best.value;
  t.dec_at = decrease_mass_;
  t.runner = ev.runner_up;
  t.tracked = ev.best.value;
  t.side = std::move(ev.side);
  t.cut_e = sg_.slot_of_current(ev.best.e);
  t.cut_f = ev.best.f == kNoEdge ? kNoEdge : sg_.slot_of_current(ev.best.f);
}

void IncrementalMinCut::store_delta_entry() {
  if (!cfg_.packing.use_cache || !packed_) return;
  mincut::PackingCache& cache =
      cfg_.packing.cache != nullptr ? *cfg_.packing.cache : mincut::PackingCache::global();
  mincut::PackingKey key;
  key.graph_fp = sg_.base_fp();
  key.config_fp = mincut::packing_config_fingerprint(cfg_.packing);
  key.rng_state = base_rng_state_;
  key.delta_fp = mix64(sg_.delta_fp() ^ kStreamDeltaTag);
  auto entry = std::make_shared<mincut::PackingEntry>();
  entry->trees.reserve(trees_.size());
  entry->tree_values.reserve(trees_.size());
  for (const TreeState& t : trees_) {
    entry->trees.push_back(t.edges);
    entry->tree_values.push_back(t.value);
  }
  entry->lambda_seed = lambda_pack_;
  // No charges and no rng exit state: adoption charges its own replay round
  // and winner re-evaluation, and warm tiers consume no randomness.
  cache.insert(key, std::move(entry));
}

std::vector<EdgeId> IncrementalMinCut::current_edges(std::span<const EdgeId> slots) const {
  std::vector<EdgeId> cur;
  cur.reserve(slots.size());
  for (const EdgeId slot : slots) cur.push_back(sg_.current_of_slot(slot));
  return cur;
}

std::uint64_t IncrementalMinCut::full_seed() const { return mix64(cfg_.seed ^ pack_epoch_); }

Weight IncrementalMinCut::surviving_witness_bound(const WeightedGraph& g) const {
  UMC_ASSERT(last_side_.size() == static_cast<std::size_t>(g.n()));
  Weight u = 0;
  for (const Edge& e : g.edges())
    if (last_side_[static_cast<std::size_t>(e.u)] != last_side_[static_cast<std::size_t>(e.v)])
      u += e.w;
  return u;
}

}  // namespace umc::stream
