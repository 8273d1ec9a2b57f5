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

/// Fills the Cut row of an instance built by hand, for the tree
/// `tree_edges` of inst.graph rooted at inst.root. Uncharged: a caller
/// that needs the charge runs one_respecting_cuts itself.
void fill_cut_row(InstanceCore& inst, std::span<const EdgeId> tree_edges);

/// Test probe of the carried-row contract: when set, every
/// carried_one_respecting_cuts call hands it its arguments before reading
/// the row. Sibling star and pair tasks call it concurrently. Set it only
/// while no solve runs; nullptr (the default) turns it off.
using CutRowProbe = void (*)(CutRowSource, const RootedTree&, const HeavyLightDecomposition&,
                             const InstanceCore&);
void set_cut_row_probe(CutRowProbe probe);

}  // namespace umc::mincut
