#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "ledger.hpp"

namespace bench {
namespace {

std::int64_t stage(const Ledger& l, Stage s) { return l.stage_ns[static_cast<std::size_t>(s)]; }

std::int64_t attributed(const Ledger& l) {
  return std::accumulate(l.stage_ns.begin(), l.stage_ns.end(), std::int64_t{0});
}

TEST(Ledger, BlockingStagesGetSelfTime) {
  // update [0,100) { seed [10,50) { batch [20,30) }, classify [60,70) }:
  // each stage keeps its duration minus its direct children's.
  const std::vector<Window> windows = {{0, 100}};
  const std::vector<Span> lane = {{60, 70, Stage::kClassify},
                                  {20, 30, Stage::kBatch},
                                  {0, 100, Stage::kUpdate},
                                  {10, 50, Stage::kSeed}};
  const Ledger l = build_ledger(windows, lane, {});
  EXPECT_EQ(stage(l, Stage::kUpdate), 50);
  EXPECT_EQ(stage(l, Stage::kSeed), 30);
  EXPECT_EQ(stage(l, Stage::kBatch), 10);
  EXPECT_EQ(stage(l, Stage::kClassify), 10);
  EXPECT_EQ(attributed(l), 100);
}

TEST(Ledger, ChildOpeningWithItsParentLandsOnTop) {
  const std::vector<Window> windows = {{0, 30}};
  const std::vector<Span> lane = {{0, 10, Stage::kSeed}, {0, 30, Stage::kUpdate}};
  const Ledger l = build_ledger(windows, lane, {});
  EXPECT_EQ(stage(l, Stage::kSeed), 10);
  EXPECT_EQ(stage(l, Stage::kUpdate), 20);
}

TEST(Ledger, HelpersOutrankTheBlockingLane) {
  // The caller is inside one unsafe update; it seeds, then waits while two
  // workers search overlapping intervals.
  const std::vector<Window> windows = {{0, 100}};
  const std::vector<Span> blocking = {{0, 100, Stage::kUpdate}, {10, 20, Stage::kSeed}};
  const std::vector<Span> helpers = {{30, 60, Stage::kSearch}, {40, 70, Stage::kSearch}};
  const Ledger l = build_ledger(windows, blocking, helpers);
  EXPECT_EQ(stage(l, Stage::kSeed), 10);
  EXPECT_EQ(stage(l, Stage::kSearch), 40);
  EXPECT_EQ(stage(l, Stage::kUpdate), 50);
  EXPECT_EQ(l.unattributed_ns, 0);
  EXPECT_EQ(l.wall_ns, 100);
}

TEST(Ledger, CountsOnlyInsideWindowsAndReportsTheResidue) {
  // Two measured calls; between them the bench loop runs (not wall). The
  // second call has 15 ns no span covers.
  const std::vector<Window> windows = {{0, 40}, {60, 100}};
  const std::vector<Span> blocking = {{0, 40, Stage::kBatch},
                                      {55, 85, Stage::kUpdate},
                                      {5, 15, Stage::kClassify}};
  const Ledger l = build_ledger(windows, blocking, {});
  EXPECT_EQ(l.wall_ns, 80);
  EXPECT_EQ(stage(l, Stage::kBatch), 30);
  EXPECT_EQ(stage(l, Stage::kClassify), 10);
  EXPECT_EQ(stage(l, Stage::kUpdate), 25);
  EXPECT_EQ(l.unattributed_ns, 15);
  EXPECT_DOUBLE_EQ(l.unattributed_frac(), 15.0 / 80.0);
}

TEST(Ledger, IdentityHoldsOnRandomSpanTrees) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Span> blocking, helpers;
    std::vector<Window> windows;
    std::int64_t t = 0;
    for (int w = 0; w < 5; ++w) {
      const std::int64_t lo = t + static_cast<std::int64_t>(rng() % 50);
      const std::int64_t hi = lo + 1 + static_cast<std::int64_t>(rng() % 500);
      windows.push_back({lo, hi});
      t = hi;
    }
    // Nested blocking spans: each opens inside the previous one.
    std::int64_t lo = 0, hi = t + 20;
    for (int depth = 0; depth < 4 && hi - lo > 2; ++depth) {
      lo += static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>((hi - lo) / 2));
      hi -= static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>((hi - lo) / 2 + 1));
      blocking.push_back({lo, hi, static_cast<Stage>(rng() % kStageCount)});
    }
    for (int h = 0; h < 20; ++h) {
      const std::int64_t s = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(t + 1));
      helpers.push_back({s, s + static_cast<std::int64_t>(rng() % 100),
                         static_cast<Stage>(rng() % kStageCount)});
    }
    const Ledger l = build_ledger(windows, blocking, helpers);
    std::int64_t wall = 0;
    for (const Window& w : windows) wall += w.end_ns - w.start_ns;
    ASSERT_EQ(l.wall_ns, wall);
    ASSERT_EQ(attributed(l) + l.unattributed_ns, l.wall_ns);
  }
}

TEST(Ledger, MapsEngineSpansToStages) {
  using paracosm::obs::EventKind;
  EXPECT_EQ(stage_of(EventKind::kTaskExpand), Stage::kSearch);
  EXPECT_EQ(stage_of(EventKind::kBatchBackend), Stage::kClassify);
  EXPECT_EQ(stage_of(EventKind::kWalFsync), Stage::kWalFsync);
  EXPECT_FALSE(stage_of(EventKind::kSteal).has_value());
}

}  // namespace
}  // namespace bench
