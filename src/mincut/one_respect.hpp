#pragma once

// 1-respecting min-cut (Section 5, Theorem 18).
//
// Given an instance (graph + rooted spanning tree), computes Cut(e) for
// EVERY tree edge in Õ(1) Minor-Aggregation rounds:
//   1. one aggregation round accumulates A(v) = weighted degree;
//   2. every graph edge locally derives its endpoints' LCA from HL-info
//      (Fact 4); ancestor-descendant edges deliver their -2w correction to
//      the LCA in one aggregation round, all others route it through a
//      subtree sum with a bounded associative-map aggregator;
//   3. one subtree sum over A yields Cut(parent_edge(x)) at every x.
//
// The 2-respecting recursion runs it once, at its top, and carries the
// resulting row down through its cut-equivalent sub-instances; each of
// those charges the same rounds but reads the row instead
// (carried_one_respecting_cuts).

#include <cstdint>
#include <span>
#include <vector>

#include "mincut/instance.hpp"
#include "minoragg/ledger.hpp"
#include "tree/hld.hpp"
#include "tree/rooted_tree.hpp"

namespace umc::mincut {

/// Theorem 18: writes Cut_{T,G}(e) into `cut` per host edge (0 for non-tree
/// edges; overwritten, so a leased row keeps its capacity) and returns the
/// minimum over candidate tree edges (origin != kNoEdge), named by its
/// ORIGINAL tree edge id. The host graph is `t.host()`. Charges
/// one_respect_rounds(t, hld).
CutResult one_respecting_cuts(const RootedTree& t, std::span<const EdgeId> origin,
                              const HeavyLightDecomposition& hld, minoragg::Ledger& ledger,
                              std::vector<Weight>& cut);

/// The rounds Theorem 18 costs on (t, hld), the one charge rule of every
/// 1-respecting step: an aggregation round each for steps 1 and 2a, step
/// 2b's hand-off round, and two Lemma 46 subtree sums over the same tree
/// (step 2b's map aggregator and step 3).
[[nodiscard]] std::int64_t one_respect_rounds(const RootedTree& t,
                                              const HeavyLightDecomposition& hld);

/// The sub-instances of the 2-respecting recursion that read a carried
/// Cut row: Lemma 43 branches (the between-subtree calls below the top),
/// Figure 4 stars, Section 7 pair instances, and Lemma 23's G_up / G_down.
enum class CutRowSource : std::uint8_t { kBranch, kStar, kPair, kUp, kDown };

/// Theorem 18 on an instance whose Cut row is already known
/// (InstanceCore::cut): the same minimum one_respecting_cuts returns on
/// (t, inst.origin), read off the row, and the same charge,
/// one_respect_rounds(t, hld). `t` spans inst.graph; `source` only tells
/// the test probe below which kind of sub-instance is reading.
[[nodiscard]] CutResult carried_one_respecting_cuts(CutRowSource source, const RootedTree& t,
                                                    const HeavyLightDecomposition& hld,
                                                    const InstanceCore& inst,
                                                    minoragg::Ledger& ledger);

/// One leg of a spider, a tree whose non-root nodes form paths hanging off
/// the root (stars and path-to-path instances): its nodes top (child of the
/// root) to bottom, and each node's parent edge.
struct SpiderLeg {
  std::span<const NodeId> nodes;
  std::span<const EdgeId> edges;
};

/// True iff `legs` are two legs numbered canonically under `root` 0: the
/// first leg is nodes 1..p and the second p+1..p+q, each top to bottom.
/// Every path-to-path instance builder numbers its instances this way.
[[nodiscard]] bool canonical_path_pair(NodeId root, std::span<const SpiderLeg> legs);

/// one_respect_rounds on a spider, in closed form. Its HL-depth-0 chain is
/// the root plus a longest leg, and every other leg is a chain of HL-depth
/// 1, so with L1 >= L2 the two longest legs it is
///   3 + 2 * [(2 + ceil(log2(L1 + 1))) + (k >= 2 ? 2 + ceil(log2 L2) : 0)].
[[nodiscard]] std::int64_t spider_one_respect_rounds(std::span<const SpiderLeg> legs);

/// hl_construct + carried_one_respecting_cuts on an instance whose tree is
/// the spider `legs` rooted at inst.root, with no tree built: the parent
/// row comes straight from the legs and replays the Lemma 47 charge
/// (minoragg::hl_schedule_charge, or hl_path_pair_schedule_charge for a
/// canonical path pair), Theorem 18 charges spider_one_respect_rounds, and
/// the minimum is read off inst.cut in node-id order, which is Theorem 18's
/// bottom-node order. Same result and ledger as the tree-built route.
[[nodiscard]] CutResult carried_spider_cuts(CutRowSource source, const InstanceCore& inst,
                                            std::span<const SpiderLeg> legs,
                                            minoragg::Ledger& ledger);

/// Fills the Cut row of an instance built by hand, for the tree
/// `tree_edges` of inst.graph rooted at inst.root. Uncharged: a caller
/// that needs the charge runs one_respecting_cuts itself.
void fill_cut_row(InstanceCore& inst, std::span<const EdgeId> tree_edges);

/// Test probe of the carried-row contract: when set, every carried Cut row
/// read (carried_one_respecting_cuts, carried_spider_cuts) hands it the
/// instance, the root and tree edges of the tree it is read for, and the
/// Theorem 18 rounds it charges, before reading the row. Sibling star and
/// pair tasks call it concurrently. Set it only while no solve runs;
/// nullptr (the default) turns it off.
using CutRowProbe = void (*)(CutRowSource, const InstanceCore&, NodeId root,
                             std::span<const EdgeId> tree_edges, std::int64_t rounds);
void set_cut_row_probe(CutRowProbe probe);

}  // namespace umc::mincut
