#include "mincut/subtree_instance.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "mincut/one_respect.hpp"
#include "mincut/star.hpp"
#include "minoragg/tree_primitives.hpp"
#include "minoragg/virtual_graph.hpp"
#include "obs/trace.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

/// One HL-chain of the instance tree, as a candidate star path.
struct Chain {
  int branch = -1;  // child-of-root branch index
  int hl_depth = 0;
  /// Top → bottom host node ids, root excluded (a view into the chain
  /// layout); the path's edges are these nodes' parent edges.
  std::span<const NodeId> nodes;
};

/// A star configuration task's private result row.
struct StarSlot {
  minoragg::Ledger iter;
  CutResult best;
  bool ran_star = false;
  int pairs = 0;  // path pairs the star examined
};

/// between_subtree_mincut, with the hub's 1-respecting step either read
/// off inst.cut or, given `fill` (which is inst.cut), computed into it.
CutResult between_subtree(const RootedTree& t, const InstanceCore& inst,
                          minoragg::Ledger& ledger, std::vector<Weight>* fill) {
  UMC_ASSERT(&t.host() == &inst.graph);
  const WeightedGraph& g = inst.graph;
  const NodeId root = t.root();
  minoragg::Ledger local;
  ScratchLease<HeavyLightDecomposition> hld_s;
  minoragg::hl_construct(t, local, *hld_s);
  const HeavyLightDecomposition& hld = *hld_s;
  CutResult best =
      fill != nullptr
          ? one_respecting_cuts(t, inst.origin, hld, local, *fill)
          : carried_one_respecting_cuts(CutRowSource::kBranch, t, hld, inst, local);

  // Branch index per node: which child-of-root subtree it lives in (the
  // child's preorder range).
  ScratchLease<std::vector<int>> branch_s;
  std::vector<int>& branch = *branch_s;
  branch.assign(static_cast<std::size_t>(g.n()), -1);
  {
    int next = 0;
    const std::span<const NodeId> pre = t.preorder();
    for (const NodeId c : t.children(root)) {
      const std::size_t first = static_cast<std::size_t>(t.preorder_index(c));
      for (std::size_t j = 0; j < static_cast<std::size_t>(t.subtree_size(c)); ++j)
        branch[static_cast<std::size_t>(pre[first + j])] = next;
      ++next;
    }
  }
  const int k = static_cast<int>(t.children(root).size());
  const int beta = inst.beta();
  if (k < 2) {
    minoragg::settle_virtual_execution(ledger, local, beta);
    return best;  // no cross-branch pairs exist
  }

  // HL-chains of the instance tree (the prospective star paths). The
  // layout outlives every star task below, which only read it.
  ScratchLease<minoragg::ChainLayout> layout_s;
  minoragg::build_chain_layout(t, hld, *layout_s);
  ScratchLease<std::vector<Chain>> chains_s;
  std::vector<Chain>& chains = *chains_s;
  chains.clear();
  for (int d = 0; d < layout_s->levels(); ++d) {
    for (std::size_t ci = layout_s->first_chain(d); ci < layout_s->end_chain(d); ++ci) {
      std::span<const NodeId> nodes = layout_s->chain(ci);
      if (nodes.front() == root) nodes = nodes.subspan(1);  // the root heads its chain
      if (nodes.empty()) continue;
      chains.push_back(Chain{branch[static_cast<std::size_t>(nodes.front())], d, nodes});
    }
  }

  // Pairwise coloring (Lemma 38): color assignment b = the b-th bit of the
  // branch index; chi = ceil(log2 k) assignments distinguish every pair.
  const int chi = std::max(1, ceil_log2(static_cast<std::uint64_t>(k)));
  local.charge(chi);  // Lemma 38 construction
  const int maxd = hld.max_hl_depth();

  minoragg::settle_virtual_execution(ledger, local, beta);

  // Enumerate the (bit, d1, d2) configurations that pass the cheap
  // surviving-paths pre-check, in loop order. Each is an independent star
  // solve — a TaskGraph work item writing a private slot — and the merge
  // below replays `absorb / bump / charge_sequential` in exactly the
  // enumeration order, so ledger counters are bit-identical at any width.
  // The kept tree edges of a configuration are exactly its surviving
  // chains' parent edges, so two configurations with the same surviving
  // chains build the same star: the later one runs nothing and the merge
  // reads its first twin's slot.
  struct StarConfig {
    int bit, d1, d2;
    std::uint64_t sig = 0;  // hash of the surviving chain indices
    int twin = -1;          // earlier configuration with the same survivors
  };
  const auto target = [](const StarConfig& cfg, int br) {
    const bool red = ((br >> cfg.bit) & 1) != 0;
    return red ? cfg.d1 : cfg.d2;
  };
  const auto survives = [&target](const StarConfig& cfg, const Chain& c) {
    return c.hl_depth == target(cfg, c.branch);
  };
  ScratchLease<std::vector<StarConfig>> configs_s;
  std::vector<StarConfig>& configs = *configs_s;
  configs.clear();
  for (int bit = 0; bit < chi; ++bit) {
    for (int d1 = 0; d1 <= maxd; ++d1) {
      for (int d2 = 0; d2 <= maxd; ++d2) {
        if (d1 == d2 && bit > 0) continue;  // color-independent, do it once
        // Cheap pre-check: at least two surviving paths needed.
        StarConfig cfg{bit, d1, d2};
        int surviving = 0;
        for (std::size_t c = 0; c < chains.size(); ++c) {
          if (!survives(cfg, chains[c])) continue;
          ++surviving;
          cfg.sig = cfg.sig * 0x9E3779B97F4A7C15ULL + c + 1;
        }
        if (surviving < 2) continue;
        for (std::size_t p = 0; p < configs.size() && cfg.twin < 0; ++p) {
          const StarConfig& prev = configs[p];
          if (prev.twin < 0 && prev.sig == cfg.sig &&
              std::all_of(chains.begin(), chains.end(), [&](const Chain& c) {
                return survives(prev, c) == survives(cfg, c);
              }))
            cfg.twin = static_cast<int>(p);
        }
        configs.push_back(cfg);
      }
    }
  }

  ScratchLease<std::vector<StarSlot>> slots_s;
  std::vector<StarSlot>& slots = *slots_s;
  slots.assign(configs.size(), StarSlot{});
  PairMemo memo;  // every star of this call shares its chain pairs' solves
  {
    TaskGroup stars;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const StarConfig cfg = configs[ci];
      if (cfg.twin >= 0) continue;
      StarSlot& slot = slots[ci];
      stars.spawn([&, cfg, ci] {
        UMC_OBS_SPAN_VAR_L(obs_item, "mincut/ttr_item", "mincut",
                           static_cast<std::int64_t>(ci));
        obs_item.arg("kind", 1);  // 1 = between-subtree star config
        obs_item.arg("pool_thread", ThreadPool::current_index());
        minoragg::Ledger& iter = slot.iter;
        // Contract every tree edge of the wrong depth (Figure 4). The rows
        // are leased per-thread scratch: every config task on a worker
        // reuses the same backing capacity.
        ScratchLease<std::vector<NodeId>> map_s, top_s;
        std::vector<NodeId>& map = *map_s;
        const NodeId supernodes = contracted_node_map(
            t,
            [&](NodeId v) {
              return hld.hl_depth_edge(t.parent_edge(v)) !=
                     target(cfg, branch[static_cast<std::size_t>(v)]);
            },
            map, *top_s);
        iter.charge(1);

        // Skip configurations with no cross-path edge: by Lemma 28, no
        // below-1-respecting pair can live here. That needs only the
        // surviving path of each supernode, not the minor itself.
        ScratchLease<std::vector<int>> path_s;
        std::vector<int>& path = *path_s;
        path.assign(static_cast<std::size_t>(supernodes), -1);
        int paths = 0;
        for (const Chain& c : chains) {
          if (!survives(cfg, c)) continue;
          for (const NodeId v : c.nodes)
            path[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])] = paths;
          ++paths;
        }
        const auto path_of = [&](NodeId v) {
          return path[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
        };
        if (std::none_of(g.edges().begin(), g.edges().end(), [&](const Edge& e) {
              const int pu = path_of(e.u), pv = path_of(e.v);
              return pu >= 0 && pv >= 0 && pu != pv;
            }))
          return;

        // The star instance is leased: its rows keep their capacity from
        // config to config.
        ScratchLease<StarInstance> star_s;
        ScratchLease<std::vector<EdgeId>> edge_map_s;
        StarInstance& star = *star_s;
        std::vector<EdgeId>& edge_map = *edge_map_s;
        build_sub_instance(inst, map, supernodes, star, edge_map);
        star.root = map[static_cast<std::size_t>(root)];  // the hub, not inst.root
        star.path_nodes.resize(static_cast<std::size_t>(paths));
        star.path_edges.resize(static_cast<std::size_t>(paths));
        star.path_chain.clear();
        for (std::size_t c = 0; c < chains.size(); ++c) {
          if (!survives(cfg, chains[c])) continue;
          const std::size_t i = star.path_chain.size();
          star.path_chain.push_back(static_cast<int>(c));
          std::vector<NodeId>& nodes = star.path_nodes[i];
          std::vector<EdgeId>& edges = star.path_edges[i];
          nodes.clear();
          edges.clear();
          for (const NodeId v : chains[c].nodes) {
            nodes.push_back(map[static_cast<std::size_t>(v)]);
            const EdgeId me = edge_map[static_cast<std::size_t>(t.parent_edge(v))];
            UMC_ASSERT_MSG(me != kNoEdge, "kept tree edge survives the minor");
            edges.push_back(me);
          }
          UMC_ASSERT_MSG(
              star.graph.edge(edges.front()).other(nodes.front()) == star.root,
              "star paths hang off the root supernode");
        }
        slot.best.absorb(star_mincut(star, iter, &memo, &slot.pairs));
        slot.ran_star = true;
      });
    }
    stars.join();
  }
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const int twin = configs[ci].twin;
    const StarSlot& slot = slots[twin >= 0 ? static_cast<std::size_t>(twin) : ci];
    if (slot.ran_star) {
      best.absorb(slot.best);
      ledger.bump(minoragg::CounterId::subtree_star_calls);
      if (twin >= 0) p2p_pairs_counter(true).inc(slot.pairs);
    }
    ledger.charge_sequential(slot.iter);
  }
  return best;
}

}  // namespace

CutResult between_subtree_mincut(const RootedTree& t, const InstanceCore& inst,
                                 minoragg::Ledger& ledger) {
  return between_subtree(t, inst, ledger, nullptr);
}

CutResult root_between_subtree_mincut(const RootedTree& t, InstanceCore& inst,
                                      minoragg::Ledger& ledger) {
  return between_subtree(t, inst, ledger, &inst.cut);
}

}  // namespace umc::mincut
