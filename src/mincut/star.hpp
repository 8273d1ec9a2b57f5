#pragma once

// Star 2-respecting min-cut (Section 7, Theorem 27).
//
// Pipeline: 1-respecting cuts (Theorem 18, read off the Cut row the star
// inherits from its between-subtree instance) → interest lists (Lemma 32) →
// mutual-interest graph (Definition 33, max degree O(log n) by Lemma 30) →
// deterministic O(Δ)-edge-coloring simulated on the interest graph
// (Lemmas 34/35) → per color class, node-disjoint path-to-path calls
// (Theorem 19) on cut-equivalent pair instances built by absorbing
// everything outside the pair into a virtual pair-root.

#include <cstdint>
#include <mutex>
#include <vector>

#include "mincut/instance.hpp"
#include "mincut/interest.hpp"
#include "minoragg/ledger.hpp"
#include "obs/metrics.hpp"
#include "util/scratch.hpp"

namespace umc::mincut {

/// Path-to-path results shared by the stars of one between_subtree_mincut
/// call, keyed by the ordered pair of HL-chain indices (a < b). A chain
/// pair's instance is the same in every star where both chains survive
/// (DESIGN.md "Pair replay"), so a recorded result stands for a fresh
/// solve. Thread-safe: every lookup and insert takes one mutex. Two tasks
/// may both miss on a key and both solve it; their results are identical,
/// and the first insert is kept. The table is open addressing over two
/// leased flat rows (entries, and a power-of-two slot row at most half
/// full), so a memo reuses the capacity earlier calls on its thread grew.
class PairMemo {
 public:
  PairMemo();

  /// Copies the recorded result of chain pair (a, b) into (best, kid);
  /// false if there is none yet.
  bool find(int a, int b, CutResult& best, minoragg::Ledger& kid);
  void insert(int a, int b, const CutResult& best, const minoragg::Ledger& kid);

 private:
  struct Entry {
    std::uint64_t key;
    CutResult best;
    minoragg::Ledger kid;
  };
  /// The entry index of `key`, or -1. Caller holds mu_.
  [[nodiscard]] std::int32_t lookup(std::uint64_t key);
  /// Puts entry `index` into the first free slot of its probe sequence.
  void place(std::uint64_t key, std::int32_t index);

  std::mutex mu_;
  ScratchLease<std::vector<Entry>> entries_;
  ScratchLease<std::vector<std::int32_t>> slots_;  // entry index, or -1
};

/// Registry counter umc_mincut_p2p_pairs_total{outcome}: star path pairs
/// whose path-to-path solve ran ("solved") or whose result was copied from
/// an identical pair or star of the same between-subtree call ("replayed").
[[nodiscard]] obs::Counter& p2p_pairs_counter(bool replayed);

/// min of candidate 1-respecting cuts and candidate 2-respecting pairs on
/// different paths; inst.cut holds the tree edges' Cut values, which the
/// pair instances inherit. Counters: "max_interest_degree",
/// "max_interest_colors".
/// With a memo and inst.path_chain set, a pair of chains the memo holds is
/// copied instead of solved, and every solved pair is recorded. `pairs`, if
/// given, receives the number of path pairs examined.
[[nodiscard]] CutResult star_mincut(const StarInstance& inst, minoragg::Ledger& ledger,
                                    PairMemo* memo = nullptr, int* pairs = nullptr);

}  // namespace umc::mincut
