// Deep validation of the Section 7.1 interest machinery: the Lemma 32
// lists are compared against a brute-force evaluation of Definition 29
// (CrossCov computed from scratch), and the structural Lemmas 28 and 30
// are checked on adversarially weighted instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "graph/generators.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/interest.hpp"
#include "tree/rooted_tree.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace umc::mincut {
namespace {

StarInstance spider_instance(const WeightedGraph& g, int k, NodeId len) {
  StarInstance inst;
  inst.graph = g;
  inst.is_virtual.assign(static_cast<std::size_t>(g.n()), false);
  inst.origin.assign(static_cast<std::size_t>(g.m()), kNoEdge);
  inst.root = 0;
  for (int i = 0; i < k; ++i) {
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
    for (NodeId j = 0; j < len; ++j) {
      nodes.push_back(1 + static_cast<NodeId>(i) * len + j);
      edges.push_back(static_cast<EdgeId>(i) * len + j);
      inst.origin[static_cast<std::size_t>(edges.back())] = edges.back();
    }
    inst.path_nodes.push_back(std::move(nodes));
    inst.path_edges.push_back(std::move(edges));
  }
  return inst;
}

/// Brute-force CrossCov(e, f): weight of cross-edges whose tree path covers
/// both (Definition in Section 7.1).
struct CrossOracle {
  const StarInstance* inst;
  RootedTree t;
  std::vector<int> of;

  explicit CrossOracle(const StarInstance& i) : inst(&i), t(i.graph, flatten(i), i.root) {
    path_of_node(i, of);
  }

  static std::vector<EdgeId> flatten(const StarInstance& i) {
    std::vector<EdgeId> tree;
    for (const auto& pe : i.path_edges) tree.insert(tree.end(), pe.begin(), pe.end());
    return tree;
  }

  [[nodiscard]] bool is_cross(EdgeId ge) const {
    const Edge& ed = inst->graph.edge(ge);
    const int pu = of[static_cast<std::size_t>(ed.u)];
    const int pv = of[static_cast<std::size_t>(ed.v)];
    return pu >= 0 && pv >= 0 && pu != pv;
  }

  [[nodiscard]] Weight cross_cov(EdgeId e, EdgeId f) const {
    Weight total = 0;
    for (EdgeId ge = 0; ge < inst->graph.m(); ++ge) {
      if (!is_cross(ge)) continue;
      if (edge_covers(t, ge, e) && edge_covers(t, ge, f)) total += inst->graph.edge(ge).w;
    }
    return total;
  }

  /// Definition 29 with alpha as a fraction num/den.
  [[nodiscard]] bool path_interested(int i, int j, Weight num, Weight den) const {
    for (const EdgeId e : inst->path_edges[static_cast<std::size_t>(i)]) {
      const Weight ce = cross_cov(e, e);
      for (const EdgeId f : inst->path_edges[static_cast<std::size_t>(j)]) {
        if (den * cross_cov(e, f) > num * ce) return true;
      }
    }
    return false;
  }
};

TEST(InterestDeep, ListsContainAllStronglyInterestedAndOnlyWeakly) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const int k = 3 + static_cast<int>(rng.next_below(4));
    const NodeId len = 3 + static_cast<NodeId>(rng.next_below(4));
    WeightedGraph g = spider(k, len, 5 * k * static_cast<EdgeId>(len), rng);
    randomize_weights(g, 1, 30, rng);
    const StarInstance inst = spider_instance(g, k, len);
    const CrossOracle oracle(inst);

    minoragg::Ledger ledger;
    PathRows lists;
  interest_lists(inst, ledger, lists);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        if (i == j) continue;
        const bool listed = std::binary_search(lists[static_cast<std::size_t>(i)].begin(),
                                               lists[static_cast<std::size_t>(i)].end(), j);
        // Requirement (1): strong (1/2) interest must be listed.
        if (oracle.path_interested(i, j, 1, 2)) {
          EXPECT_TRUE(listed) << "strong interest " << i << "->" << j << " missing";
        }
        // Requirement (2): anything listed is at least weakly (1/5)
        // interested.
        if (listed) {
          EXPECT_TRUE(oracle.path_interested(i, j, 1, 5))
              << "listed " << i << "->" << j << " below weak interest";
        }
      }
    }
  }
}

TEST(InterestDeep, Lemma28OptimalPairsAreMutuallyStronglyInterested) {
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const int k = 3;
    const NodeId len = 4;
    WeightedGraph g = spider(k, len, 40, rng);
    randomize_weights(g, 1, 20, rng);
    const StarInstance inst = spider_instance(g, k, len);
    const CrossOracle oracle(inst);

    // Best 1-respecting cut and best cross-path pair, brute force.
    Weight best1 = kInfWeight;
    for (const auto& pe : inst.path_edges)
      for (const EdgeId e : pe) best1 = std::min(best1, reference_cut_pair(oracle.t, e, e));
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        for (const EdgeId e : inst.path_edges[static_cast<std::size_t>(i)]) {
          for (const EdgeId f : inst.path_edges[static_cast<std::size_t>(j)]) {
            if (reference_cut_pair(oracle.t, e, f) >= best1) continue;
            // Lemma 28: CrossCov(e,f) > CrossCov(e)/2 and symmetrically.
            EXPECT_GT(2 * oracle.cross_cov(e, f), oracle.cross_cov(e, e));
            EXPECT_GT(2 * oracle.cross_cov(e, f), oracle.cross_cov(f, f));
          }
        }
      }
    }
  }
}

TEST(InterestDeep, Lemma30ListsStayLogarithmicUnderAdversarialWeights) {
  // Adversarial: path 0 showers geometrically decaying weight over many
  // paths, the worst case for the Subclaim-1 potential argument.
  Rng rng(7);
  const int k = 20;
  const NodeId len = 10;
  WeightedGraph g = spider(k, len, 0, rng);
  Weight w = 1 << 20;
  for (int j = 1; j < k; ++j) {
    // Edge from deeper and deeper nodes of path 0 to path j.
    const NodeId u = 1 + std::min<NodeId>(len - 1, static_cast<NodeId>(j % len));
    const NodeId v = 1 + static_cast<NodeId>(j) * len + 2;
    g.add_edge(u, v, std::max<Weight>(1, w));
    w /= 2;
  }
  const StarInstance inst = spider_instance(g, k, len);
  minoragg::Ledger ledger;
  PathRows lists;
  interest_lists(inst, ledger, lists);
  const std::size_t bound =
      static_cast<std::size_t>(10 * (ceil_log2(static_cast<std::uint64_t>(g.n())) + 1));
  for (std::size_t i = 0; i < lists.size(); ++i) EXPECT_LE(lists[i].size(), bound);
}

}  // namespace
}  // namespace umc::mincut
