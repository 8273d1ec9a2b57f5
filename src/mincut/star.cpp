#include "mincut/star.hpp"

#include <algorithm>

#include "congest/edge_coloring.hpp"
#include "mincut/one_respect.hpp"
#include "mincut/path_to_path.hpp"
#include "minoragg/virtual_graph.hpp"
#include "obs/trace.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

/// Cut-equivalent pair instance for paths (i, j), rebuilt into `pair`: every
/// node outside the two paths (the root and all other paths, with whatever
/// hangs off them) is absorbed into a fresh virtual pair-root. Real top
/// edges {root, top} become the instance's root edges with their
/// weights/origins intact, and every kept path edge its Cut value (the
/// part of the star below it is the part of its path below it).
void build_pair_instance(const StarInstance& inst, int i, int j, PathInstance& pair) {
  ScratchLease<std::vector<NodeId>> map_s;
  std::vector<NodeId>& map = *map_s;
  map.assign(static_cast<std::size_t>(inst.graph.n()), 0);  // external -> 0
  pair.nodesP.clear();
  pair.nodesQ.clear();
  NodeId next = 1;
  for (const NodeId v : inst.path_nodes[static_cast<std::size_t>(i)]) {
    map[static_cast<std::size_t>(v)] = next;
    pair.nodesP.push_back(next++);
  }
  for (const NodeId v : inst.path_nodes[static_cast<std::size_t>(j)]) {
    map[static_cast<std::size_t>(v)] = next;
    pair.nodesQ.push_back(next++);
  }
  ScratchLease<std::vector<EdgeId>> edge_map_s;
  std::vector<EdgeId>& edge_map = *edge_map_s;
  build_sub_instance(inst, map, next, pair, edge_map);
  pair.is_virtual[0] = true;  // the pair-root absorbing the outside world
  pair.edgesP.clear();
  pair.edgesQ.clear();
  for (const EdgeId e : inst.path_edges[static_cast<std::size_t>(i)])
    pair.edgesP.push_back(edge_map[static_cast<std::size_t>(e)]);
  for (const EdgeId e : inst.path_edges[static_cast<std::size_t>(j)])
    pair.edgesQ.push_back(edge_map[static_cast<std::size_t>(e)]);
}

/// One path pair of the interest graph, in color-class order.
struct PairItem {
  int color, i, j;
};

/// A pair task's private result row.
struct PairSlot {
  minoragg::Ledger kid;
  CutResult best;
};

/// PairMemo's key of chain pair (a, b), a < b.
std::uint64_t pair_key(int a, int b) {
  UMC_ASSERT(0 <= a && a < b);
  return static_cast<std::uint64_t>(a) << 32 | static_cast<std::uint32_t>(b);
}

}  // namespace

PairMemo::PairMemo() {
  entries_->clear();
  slots_->clear();
}

std::int32_t PairMemo::lookup(std::uint64_t key) {
  const std::vector<std::int32_t>& slots = *slots_;
  if (slots.empty()) return -1;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t s = mix64(key) & mask;; s = (s + 1) & mask) {
    const std::int32_t i = slots[s];
    if (i < 0 || (*entries_)[static_cast<std::size_t>(i)].key == key) return i;
  }
}

void PairMemo::place(std::uint64_t key, std::int32_t index) {
  std::vector<std::int32_t>& slots = *slots_;
  const std::size_t mask = slots.size() - 1;
  std::size_t s = mix64(key) & mask;
  while (slots[s] >= 0) s = (s + 1) & mask;
  slots[s] = index;
}

bool PairMemo::find(int a, int b, CutResult& best, minoragg::Ledger& kid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int32_t i = lookup(pair_key(a, b));
  if (i < 0) return false;
  const Entry& e = (*entries_)[static_cast<std::size_t>(i)];
  best = e.best;
  kid = e.kid;
  return true;
}

void PairMemo::insert(int a, int b, const CutResult& best, const minoragg::Ledger& kid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = pair_key(a, b);
  if (lookup(key) >= 0) return;  // a racing solve inserted first
  std::vector<Entry>& entries = *entries_;
  if (2 * (entries.size() + 1) > slots_->size()) {  // grow: stay at most half full
    slots_->assign(std::max<std::size_t>(16, 2 * slots_->size()), -1);
    for (std::size_t i = 0; i < entries.size(); ++i)
      place(entries[i].key, static_cast<std::int32_t>(i));
  }
  place(key, static_cast<std::int32_t>(entries.size()));
  entries.push_back(Entry{key, best, kid});
}

obs::Counter& p2p_pairs_counter(bool replayed) {
  static obs::Counter* const counters[2] = {
      &obs::MetricsRegistry::global().counter(
          "umc_mincut_p2p_pairs_total", {{"outcome", "solved"}},
          "Star path pairs by outcome: path-to-path solve run, or result copied "
          "from an identical pair of the same between-subtree call."),
      &obs::MetricsRegistry::global().counter("umc_mincut_p2p_pairs_total",
                                              {{"outcome", "replayed"}}),
  };
  return *counters[replayed ? 1 : 0];
}

CutResult star_mincut(const StarInstance& inst, minoragg::Ledger& ledger, PairMemo* memo,
                      int* pairs) {
  UMC_ASSERT(inst.k() >= 1);
  UMC_ASSERT(inst.path_chain.empty() || static_cast<int>(inst.path_chain.size()) == inst.k());
  if (inst.path_chain.empty()) memo = nullptr;
  if (pairs != nullptr) *pairs = 0;
  // Logical clock: the number of star paths k.
  UMC_OBS_SPAN_VAR_L(obs_star, "mincut/star", "mincut", inst.k());
  obs_star.arg("n", inst.graph.n());
  minoragg::Ledger local;

  // The star's HL construction (Lemma 47) and 1-respecting cuts (Theorem
  // 18), off the carried row: the star is a spider, so no tree is built.
  CutResult best;
  {
    ScratchLease<std::vector<SpiderLeg>> legs_s;
    std::vector<SpiderLeg>& legs = *legs_s;
    legs.clear();
    for (int i = 0; i < inst.k(); ++i)
      legs.push_back(SpiderLeg{inst.path_nodes[static_cast<std::size_t>(i)],
                               inst.path_edges[static_cast<std::size_t>(i)]});
    best = carried_spider_cuts(CutRowSource::kStar, inst, legs, local);
  }

  if (inst.k() >= 2) {
    // Interest lists (Lemma 32) and the mutual-interest graph (Def. 33).
    // The per-star rows below are leased: every star on a thread reuses
    // them.
    ScratchLease<PathRows> lists, igraph;
    interest_lists(inst, local, *lists);
    interest_graph(*lists, *igraph);
    int delta = 0;
    for (std::size_t i = 0; i < igraph->size(); ++i)
      delta = std::max(delta, static_cast<int>((*igraph)[i].size()));
    local.set_max(minoragg::CounterId::max_interest_degree, delta);

    // Edge-color the interest graph (Lemma 35) via the CONGEST-on-interest-
    // graph simulation (Lemma 34: one MA round per CONGEST round).
    ScratchLease<std::vector<Edge>> ig_edges_s;
    std::vector<Edge>& ig_edges = *ig_edges_s;
    ig_edges.clear();
    for (std::size_t i = 0; i < igraph->size(); ++i)
      for (const int j : (*igraph)[i])
        if (static_cast<int>(i) < j) ig_edges.push_back(Edge{static_cast<NodeId>(i), j, 1});
    ScratchLease<WeightedGraph> ig_s;
    WeightedGraph& ig = *ig_s;
    ig.assign(static_cast<NodeId>(inst.k()), ig_edges);
    ScratchLease<std::vector<int>> color_s;
    const std::vector<int>& color = *color_s;
    const congest::EdgeColoring coloring = congest::deterministic_edge_coloring(ig, *color_s);
    local.charge(coloring.congest_rounds);
    local.set_max(minoragg::CounterId::max_interest_colors, coloring.num_colors);

    minoragg::settle_virtual_execution(ledger, local, inst.beta());

    // The model processes color classes in series (within a class the
    // matched pairs are node-disjoint and run simultaneously), but that is
    // a round-accounting structure, not a scheduling constraint: every
    // (color, pair) item is an independent computation, so all of them are
    // spawned at once and only the LEDGER merge below walks the classes in
    // series — absorb in (color, edge-id) order, then charge_parallel per
    // class — reproducing the sequential charge sequence bit for bit.
    ScratchLease<std::vector<PairItem>> items_s;
    std::vector<PairItem>& items = *items_s;
    items.clear();
    for (int c = 0; c < coloring.num_colors; ++c) {
      for (EdgeId e = 0; e < ig.m(); ++e) {
        if (color[static_cast<std::size_t>(e)] != c) continue;
        items.push_back(PairItem{c, ig.edge(e).u, ig.edge(e).v});
      }
    }
    if (pairs != nullptr) *pairs = static_cast<int>(items.size());
    ScratchLease<std::vector<PairSlot>> slots_s;
    std::vector<PairSlot>& slots = *slots_s;
    slots.clear();
    slots.resize(items.size());
    {
      TaskGroup p2p;
      for (std::size_t x = 0; x < items.size(); ++x) {
        const PairItem item = items[x];
        PairSlot& slot = slots[x];
        p2p.spawn([&inst, memo, item, &slot, x] {
          UMC_OBS_SPAN_VAR_L(obs_item, "mincut/ttr_item", "mincut",
                             static_cast<std::int64_t>(x));
          // Path i < j comes from chain a < b: the key is already ordered.
          const int a = memo != nullptr ? inst.path_chain[static_cast<std::size_t>(item.i)] : 0;
          const int b = memo != nullptr ? inst.path_chain[static_cast<std::size_t>(item.j)] : 0;
          const bool replayed = memo != nullptr && memo->find(a, b, slot.best, slot.kid);
          p2p_pairs_counter(replayed).inc();
          // TraceEvent holds two args max: kind + pool_thread win the slots
          // (the flattened item index x is the logical clock).
          obs_item.arg("kind", replayed ? 4 : 2);  // 2 = star pair solved, 4 = replayed
          obs_item.arg("pool_thread", ThreadPool::current_index());
          if (replayed) return;
          ScratchLease<PathInstance> pair;
          build_pair_instance(inst, item.i, item.j, *pair);
          slot.best = path_to_path_mincut(*pair, slot.kid);
          if (memo != nullptr) memo->insert(a, b, slot.best, slot.kid);
        });
      }
      p2p.join();
    }
    ScratchLease<std::vector<minoragg::Ledger>> kids_s;
    std::vector<minoragg::Ledger>& kids = *kids_s;
    std::size_t x = 0;
    for (int c = 0; c < coloring.num_colors; ++c) {
      kids.clear();
      while (x < items.size() && items[x].color == c) {
        best.absorb(slots[x].best);
        kids.push_back(std::move(slots[x].kid));
        ++x;
      }
      ledger.charge_parallel(kids);
    }
  } else {
    minoragg::settle_virtual_execution(ledger, local, inst.beta());
  }
  return best;
}

}  // namespace umc::mincut
