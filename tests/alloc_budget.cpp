// Heap-allocation budget of a cold exact min-cut solve.
//
// Replaces the global operator new/delete with counting wrappers around
// malloc/free and counts every operator new call made during width-1
// exact_mincut solves of three fixed planar 8x8 instances (diagonal
// probability 0.4, weights 1..100, max_trees 16 — the cold_planar shape).
// One solve of a fourth instance runs first, uncounted, so the per-thread
// scratch pools are warm, as they are in any long-running process.
//
// The budget is the count this layout achieves plus 10%: a change that
// brings back per-node vectors or per-instance copies in the 2-respecting
// recursion fails here. Sanitizer builds intercept operator new themselves,
// so tests/CMakeLists.txt registers this binary only in plain builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "mincut/exact_mincut.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::int64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t al) { return counted_aligned_alloc(size, al); }
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

/// operator new calls per solve, averaged over the three counted solves, as
/// measured with tree-free star and path-pair charges, leased
/// between-subtree star slots and a pair memo over leased flat rows
/// (g++ 12, libstdc++). Before those: 19,645 (the 1-respecting Cut row
/// carried down the recursion and the interest graph's edge colors in a
/// leased row); 26,283 before that (fixed-slot Ledger counters, CSR
/// sub-instance graphs, the flat Step 2b delta arena, flat interest rows
/// and leased Lemma 47 schedule rows); pair replay alone made 223,858; one
/// sub-instance builder 274,632; the flat tree layouts 286,275; the layout
/// before them 791,718. Budget = achieved + 10%.
constexpr std::int64_t kAchievedPerSolve = 17'176;
constexpr std::int64_t kBudgetPerSolve = kAchievedPerSolve + kAchievedPerSolve / 10;

umc::WeightedGraph planar_instance(std::uint64_t seed) {
  umc::Rng rng(seed);
  umc::WeightedGraph g = umc::random_planar_grid(8, 8, 0.4, rng);
  umc::randomize_weights(g, 1, 100, rng);
  (void)g.csr();
  return g;
}

umc::Weight solve_width1(const umc::WeightedGraph& g, std::uint64_t packing_seed) {
  umc::mincut::PackingConfig cfg;
  cfg.max_trees = 16;
  umc::Rng rng(packing_seed);
  umc::minoragg::Ledger ledger;
  return umc::mincut::exact_mincut(g, rng, ledger, cfg, /*num_threads=*/1).value;
}

TEST(AllocBudget, ColdPlanar8x8Width1) {
  const umc::WeightedGraph warm = planar_instance(99);
  const umc::WeightedGraph graphs[3] = {planar_instance(1), planar_instance(2),
                                        planar_instance(3)};
  (void)solve_width1(warm, 7);

  std::int64_t total = 0;
  for (int i = 0; i < 3; ++i) {
    const umc::Weight expected = umc::baseline::stoer_wagner(graphs[i]).value;
    const std::int64_t before = g_news.load();
    const umc::Weight value = solve_width1(graphs[i], 100 + static_cast<std::uint64_t>(i));
    const std::int64_t news = g_news.load() - before;
    EXPECT_EQ(value, expected);
    std::printf("instance %d: %lld operator new calls\n", i, static_cast<long long>(news));
    total += news;
  }
  const std::int64_t per_solve = total / 3;
  std::printf("mean: %lld operator new calls per solve (budget %lld)\n",
              static_cast<long long>(per_solve), static_cast<long long>(kBudgetPerSolve));
  EXPECT_LE(per_solve, kBudgetPerSolve)
      << "a width-1 cold planar solve allocates more than its budget";
}

}  // namespace
