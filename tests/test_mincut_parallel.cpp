// Determinism gate for the exact_mincut task graph: the scheduler may run
// tree solves, star configurations, path-to-path pairs, and Monge halves on
// any thread in any order, but the merged output — CutResult AND every
// Ledger counter, not just the gated subset — must be bit-identical at
// widths 1 through 8. Width 1 is the inline sequential reference (TaskGroup
// spawns degrade to direct calls), so these sweeps pin the parallel
// schedule to the sequential semantics. Plus unit tests for the TaskGraph
// scheduler itself and the streaming tree-packing overload it feeds on.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/star.hpp"
#include "mincut/tree_packing.hpp"
#include "mincut/two_respect.hpp"
#include "minoragg/ledger.hpp"
#include "obs/metrics.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace umc {
namespace {

struct SolveSnapshot {
  Weight value = 0;
  EdgeId e = kNoEdge, f = kNoEdge;
  int winning_tree = -1, num_trees = -1;
  std::int64_t rounds = 0;
  minoragg::Ledger::Counters counters;

  bool operator==(const SolveSnapshot&) const = default;
};

SolveSnapshot run_exact(const WeightedGraph& g, int threads,
                        const mincut::PackingConfig& config = {}) {
  Rng rng(7);
  minoragg::Ledger ledger;
  const auto r = mincut::exact_mincut(g, rng, ledger, config, threads);
  SolveSnapshot s;
  s.value = r.value;
  s.e = r.e;
  s.f = r.f;
  s.winning_tree = r.winning_tree;
  s.num_trees = r.num_trees;
  s.rounds = ledger.rounds();
  s.counters = ledger.counters();
  return s;
}

void expect_width_invariant(const WeightedGraph& g, const mincut::PackingConfig& config = {}) {
  const SolveSnapshot want = run_exact(g, 1, config);
  for (int t = 2; t <= 8; ++t) {
    const SolveSnapshot got = run_exact(g, t, config);
    EXPECT_EQ(got.value, want.value) << "threads=" << t;
    EXPECT_EQ(got.e, want.e) << "threads=" << t;
    EXPECT_EQ(got.f, want.f) << "threads=" << t;
    EXPECT_EQ(got.winning_tree, want.winning_tree) << "threads=" << t;
    EXPECT_EQ(got.num_trees, want.num_trees) << "threads=" << t;
    EXPECT_EQ(got.rounds, want.rounds) << "threads=" << t;
    // Full counter-map equality: same keys, same values — any scheduling
    // leak into the accounting shows up here with the offending key.
    EXPECT_EQ(got.counters, want.counters) << "threads=" << t;
  }
}

TEST(MincutParallel, GridBitIdenticalAcrossWidths) {
  expect_width_invariant(grid_graph(6, 6));
}

TEST(MincutParallel, ErdosRenyiBitIdenticalAcrossWidths) {
  Rng rng(23);
  expect_width_invariant(erdos_renyi_connected(48, 0.18, rng));
}

TEST(MincutParallel, PlanarBitIdenticalAcrossWidths) {
  Rng rng(5);
  expect_width_invariant(random_planar_grid(7, 7, 0.4, rng));
}

TEST(MincutParallel, DominantTreeBitIdenticalAcrossWidths) {
  // Pathological pipeline shape: cap the packing at two trees so one tree's
  // solve dominates the whole session and the pipelined producer finishes
  // long before the solves — the exact case the per-tree fan-out of old
  // could not split. Intra-tree items must carry the width sweep alone.
  Rng rng(11);
  const WeightedGraph g = erdos_renyi_connected(56, 0.3, rng);
  mincut::PackingConfig config;
  config.max_trees = 2;
  expect_width_invariant(g, config);
}

TEST(MincutParallel, StreamingPackingMatchesRetainingOverload) {
  // The pipelined solve consumes trees through the sink overload; it must
  // produce exactly the retained list — same trees, same order, same
  // charges, same rng consumption.
  Rng grng(31);
  const WeightedGraph g = erdos_renyi_connected(40, 0.2, grng);

  Rng rng_a(9);
  minoragg::Ledger led_a;
  const auto retained = mincut::tree_packing(g, rng_a, led_a, {});

  Rng rng_b(9);
  minoragg::Ledger led_b;
  std::vector<std::vector<EdgeId>> streamed;
  const auto meta = mincut::tree_packing(g, rng_b, led_b, {},
                                         [&streamed](std::vector<EdgeId> tree) {
                                           streamed.push_back(std::move(tree));
                                         });
  EXPECT_TRUE(meta.trees.empty()) << "sink mode must not retain trees";
  EXPECT_EQ(meta.lambda_seed, retained.lambda_seed);
  EXPECT_EQ(meta.sampled, retained.sampled);
  EXPECT_EQ(streamed, retained.trees);
  EXPECT_EQ(led_b.rounds(), led_a.rounds());
  EXPECT_EQ(led_b.counters(), led_a.counters());
}

TEST(MincutParallel, PairReplayKeepsTwoRespectGoldensAcrossWidths) {
  // TwoRespect.GoldenResultsAndLedgers's three instances and goldens, run
  // inside a task session: path pairs and star configurations replayed
  // from the same between-subtree call (DESIGN.md "Pair replay") must leave
  // every answer and ledger as it was, even when two tasks race on one
  // pair. Every star pair is counted once, as solved or replayed; 152 is
  // the pair-task count on the planar instance before replay existed.
  struct Golden {
    Weight value;
    EdgeId e, f;
    const char* ledger;
  };
  const Golden want[] = {
      {60, 23, 9,
       R"({"rounds": 33347, "counters": {"cv_iterations": 780, "hl_merge_iterations": 753, )"
       R"("max_beta": 3, "max_general_depth": 6, "max_interest_colors": 3, )"
       R"("max_interest_degree": 3, "max_p2p_depth": 2, "subtree_star_calls": 87}})"},
      {15, 145, kNoEdge,
       R"({"rounds": 27933, "counters": {"cv_iterations": 642, "hl_merge_iterations": 603, )"
       R"("max_beta": 2, "max_general_depth": 4, "max_interest_colors": 4, )"
       R"("max_interest_degree": 4, "max_p2p_depth": 1, "subtree_star_calls": 86}})"},
      {5, 62, 60,
       R"({"rounds": 22034, "counters": {"cv_iterations": 826, "hl_merge_iterations": 826, )"
       R"("max_beta": 3, "max_general_depth": 7, "max_interest_colors": 1, )"
       R"("max_interest_degree": 1, "max_p2p_depth": 3, "subtree_star_calls": 72}})"},
  };
  const obs::Counter& solved = mincut::p2p_pairs_counter(false);
  const obs::Counter& replayed = mincut::p2p_pairs_counter(true);
  for (const int width : {1, 4}) {
    for (int which = 0; which < 3; ++which) {
      WeightedGraph g;
      std::vector<EdgeId> tree;
      if (which == 0) {
        Rng rng(101);
        g = random_planar_grid(8, 8, 0.4, rng);
        randomize_weights(g, 1, 100, rng);
        tree = wilson_random_spanning_tree(g, rng);
      } else if (which == 1) {
        Rng rng(202);
        g = erdos_renyi_connected(64, 0.12, rng);
        randomize_weights(g, 1, 50, rng);
        tree = bfs_spanning_tree(g, 0);
      } else {
        Rng rng(303);
        g = spider(3, 40, 150, rng);  // tree = the three 40-edge legs
        randomize_weights(g, 1, 20, rng);
        tree.resize(120);
        std::iota(tree.begin(), tree.end(), EdgeId{0});
      }
      const std::int64_t solved0 = solved.value(), replayed0 = replayed.value();
      minoragg::Ledger ledger;
      mincut::CutResult got;
      TaskGraph::session(width, [&] { got = mincut::two_respecting_mincut(g, tree, 0, ledger); });
      const Golden& w = want[which];
      EXPECT_EQ(got.value, w.value) << "width " << width << " instance " << which;
      EXPECT_EQ(got.e, w.e) << "width " << width << " instance " << which;
      EXPECT_EQ(got.f, w.f) << "width " << width << " instance " << which;
      EXPECT_EQ(ledger.to_json(), w.ledger) << "width " << width << " instance " << which;
      if (which == 0) {
        const std::int64_t s = solved.value() - solved0, r = replayed.value() - replayed0;
        EXPECT_EQ(s + r, 152) << "width " << width;
        EXPECT_GT(r, 0) << "width " << width;
      }
    }
  }
}

TEST(MincutParallel, PairMemoRacingMissesKeepTheFirstInsert) {
  // The memo's race, forced: two tasks of one width-2 session both miss on
  // chain pair (3, 5) before either inserts (the barrier needs both tasks
  // on their own threads, which a width-2 session gives), then insert
  // concurrently with distinguishable results. Whichever insert takes the
  // lock first is kept: both tasks' finds after their own insert, a find
  // after the session, and a find after a late third insert all return
  // it. The registry counts every examined pair once: two racing solves,
  // then one replay.
  mincut::PairMemo memo;
  obs::Counter& solved = mincut::p2p_pairs_counter(false);
  obs::Counter& replayed = mincut::p2p_pairs_counter(true);
  const std::int64_t solved0 = solved.value(), replayed0 = replayed.value();
  const auto result = [](int k) { return mincut::CutResult{10 + k, 20 + k, kNoEdge}; };
  const auto charges = [](int k) {
    minoragg::Ledger kid;
    kid.charge(1 + k);
    return kid;
  };
  std::atomic<int> missed{0};
  Weight seen[2] = {-1, -1};
  const auto stats = TaskGraph::session(2, [&] {
    TaskGroup group;
    for (int k = 0; k < 2; ++k) {
      group.spawn([&, k] {
        mincut::CutResult best;
        minoragg::Ledger kid;
        const bool hit = memo.find(3, 5, best, kid);
        mincut::p2p_pairs_counter(hit).inc();
        EXPECT_FALSE(hit) << "task " << k;
        missed.fetch_add(1);
        while (missed.load() < 2) std::this_thread::yield();
        memo.insert(3, 5, result(k), charges(k));
        EXPECT_TRUE(memo.find(3, 5, best, kid)) << "task " << k;
        seen[k] = best.value;
      });
    }
    group.join();
  });
  ASSERT_EQ(stats.width, 2);

  mincut::CutResult best;
  minoragg::Ledger kid;
  const bool hit = memo.find(3, 5, best, kid);
  mincut::p2p_pairs_counter(hit).inc();
  ASSERT_TRUE(hit);
  const int first = static_cast<int>(best.value) - 10;
  ASSERT_TRUE(first == 0 || first == 1) << best.value;
  EXPECT_EQ(best.e, result(first).e);
  EXPECT_EQ(kid.rounds(), charges(first).rounds());
  EXPECT_EQ(seen[0], best.value);
  EXPECT_EQ(seen[1], best.value);
  memo.insert(3, 5, result(7), charges(7));
  ASSERT_TRUE(memo.find(3, 5, best, kid));
  EXPECT_EQ(best.value, result(first).value);
  EXPECT_EQ(solved.value() - solved0, 2);
  EXPECT_EQ(replayed.value() - replayed0, 1);
}

// ---------------------------------------------------------------------------
// TaskGraph scheduler unit tests.

TEST(TaskGraph, SessionRunsAllSpawnedTasks) {
  std::atomic<int> ran{0};
  const auto stats = TaskGraph::session(4, [&ran] {
    TaskGroup group;
    for (int i = 0; i < 64; ++i) group.spawn([&ran] { ran.fetch_add(1); });
    group.join();
  });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(stats.spawned, 64);
  EXPECT_EQ(stats.width, 4);
}

TEST(TaskGraph, NestedGroupsComplete) {
  // Tasks spawning tasks: the shape the centroid recursion produces. Joins
  // must help (not deadlock) even when every worker is inside a join.
  std::atomic<int> leaves{0};
  TaskGraph::session(4, [&leaves] {
    TaskGroup outer;
    for (int i = 0; i < 8; ++i) {
      outer.spawn([&leaves] {
        TaskGroup inner;
        for (int j = 0; j < 8; ++j) inner.spawn([&leaves] { leaves.fetch_add(1); });
        inner.join();
      });
    }
    outer.join();
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(TaskGraph, WidthOneDegradesInline) {
  // width 1 => no session: spawns run immediately on the calling thread in
  // spawn order — the sequential reference the sweeps above compare against.
  std::vector<int> order;
  const auto stats = TaskGraph::session(1, [&order] {
    EXPECT_FALSE(TaskGraph::in_session());
    TaskGroup group;
    for (int i = 0; i < 4; ++i) group.spawn([&order, i] { order.push_back(i); });
    group.join();
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.spawned, 0);
  EXPECT_EQ(stats.width, 1);
}

TEST(TaskGraph, NestedSessionDegradesInline) {
  // A session inside a session must not recurse into the pool.
  bool inner_ran = false;
  TaskGraph::session(2, [&inner_ran] {
    EXPECT_TRUE(TaskGraph::in_session());
    const auto inner = TaskGraph::session(4, [&inner_ran] { inner_ran = true; });
    EXPECT_EQ(inner.width, 1);
  });
  EXPECT_TRUE(inner_ran);
}

TEST(TaskGraph, TaskExceptionPropagatesToOpener) {
  std::atomic<int> survivors{0};
  const auto run = [&survivors] {
    TaskGraph::session(4, [&survivors] {
      TaskGroup group;
      group.spawn([] { throw std::runtime_error("task boom"); });
      for (int i = 0; i < 8; ++i) group.spawn([&survivors] { survivors.fetch_add(1); });
      group.join();
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The session drains: the sibling tasks still ran before the rethrow.
  EXPECT_EQ(survivors.load(), 8);
}

TEST(TaskGraph, ReusableGroupAcrossJoinCycles) {
  int total = 0;
  TaskGraph::session(2, [&total] {
    TaskGroup group;
    std::atomic<int> a{0}, b{0};
    group.spawn([&a] { a.fetch_add(1); });
    group.join();
    group.spawn([&b] { b.fetch_add(2); });
    group.join();
    total = a.load() + b.load();
  });
  EXPECT_EQ(total, 3);
}

}  // namespace
}  // namespace umc
