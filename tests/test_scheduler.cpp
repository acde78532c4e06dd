// Randomized scheduler torture test: the lock-free runtime must be
// observably identical to sequential enumeration. For every update we
// collect the FULL match set (not just the count) through the match
// callback and require the delivered streams to be byte-identical across
//   sequential  ×  central queue  ×  work stealing  ×  static partition
// at 1/2/4/8 threads — exercising the deterministic per-worker-buffer merge
// (match_buffer.hpp) and the Chase–Lev termination protocol under real
// search trees. Degenerate shapes (empty tree, single seed) are covered
// explicitly; tiny spin budgets force the park/unpark path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "paracosm/inner_executor.hpp"
#include "paracosm/worker_pool.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

using MatchSet = std::vector<std::vector<csm::Assignment>>;

constexpr std::array<Scheduler, 3> kSchedulers = {
    Scheduler::kCentralQueue, Scheduler::kWorkStealing, Scheduler::kStatic};

/// Tiny spin budget: every run exercises park/unpark, not just spinning.
constexpr std::uint32_t kSpin = 8;

/// One executor per scheduler over `pool`.
std::vector<std::unique_ptr<InnerExecutor>> all_executors(WorkerPool& pool,
                                                          std::uint32_t split_depth) {
  std::vector<std::unique_ptr<InnerExecutor>> out;
  for (const Scheduler s : kSchedulers)
    out.push_back(std::make_unique<InnerExecutor>(pool, split_depth, s, kSpin));
  return out;
}

/// Callback that records every delivered mapping.
struct Collector {
  MatchSet matches;
  std::function<void(std::span<const csm::Assignment>)> fn =
      [this](std::span<const csm::Assignment> m) {
        matches.emplace_back(m.begin(), m.end());
      };
};

bool mapping_less(const std::vector<csm::Assignment>& a,
                  const std::vector<csm::Assignment>& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const csm::Assignment& x, const csm::Assignment& y) {
        return x.qv != y.qv ? x.qv < y.qv : x.dv < y.dv;
      });
}

/// Sequential reference: expand every seed with a plain sink, then sort the
/// collected mappings with the executors' published (qv, dv) order.
MatchSet sequential_reference(const csm::CsmAlgorithm& alg,
                              const std::vector<csm::SearchTask>& seeds) {
  Collector ref;
  csm::MatchSink sink;
  sink.on_match = ref.fn;
  for (const csm::SearchTask& task : seeds) alg.expand(task, sink, nullptr);
  std::sort(ref.matches.begin(), ref.matches.end(), mapping_less);
  return ref.matches;
}

struct TortureCase {
  std::uint64_t seed;
  std::string_view algorithm;
  std::uint32_t split_depth;
};

class SchedulerTortureTest : public ::testing::TestWithParam<TortureCase> {};

TEST_P(SchedulerTortureTest, AllExecutorsDeliverIdenticalMatchSets) {
  const TortureCase& tc = GetParam();
  testing::SmallWorkload wl =
      testing::make_workload(tc.seed, 48, 150, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm(tc.algorithm);
  alg->attach(wl.query, wl.graph);
  util::Rng rng(tc.seed ^ 0x5eedULL);
  auto stream = graph::make_insert_stream(wl.graph, 0.3, rng);
  ASSERT_FALSE(stream.empty());

  struct Rig {
    std::unique_ptr<WorkerPool> pool;
    std::vector<std::unique_ptr<InnerExecutor>> executors;
  };
  std::vector<Rig> rigs;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Rig rig;
    rig.pool = std::make_unique<WorkerPool>(threads, kSpin);
    rig.executors = all_executors(*rig.pool, tc.split_depth);
    rigs.push_back(std::move(rig));
  }

  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);

    const MatchSet expected = sequential_reference(*alg, seeds);
    for (Rig& rig : rigs) {
      for (const auto& executor : rig.executors) {
        const std::string where = std::string(scheduler_name(executor->scheduler())) +
                                  " t" + std::to_string(rig.pool->size());
        Collector got;
        const InnerRunResult r = executor->run(*alg, seeds, {}, &got.fn);
        EXPECT_EQ(got.matches, expected) << where;
        EXPECT_EQ(r.matches, expected.size()) << where;
        EXPECT_GE(r.stats.total_steals_attempted(), r.stats.total_steals_succeeded())
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerTortureTest,
    ::testing::Values(TortureCase{11, "graphflow", 3},
                      TortureCase{23, "symbi", 0},
                      TortureCase{37, "graphflow", 8},
                      TortureCase{59, "turboflux", 4}),
    [](const ::testing::TestParamInfo<TortureCase>& info) {
      return std::string(info.param.algorithm) + "_s" +
             std::to_string(info.param.seed) + "_d" +
             std::to_string(info.param.split_depth);
    });

TEST(SchedulerTorture, EmptyTreeIsANoOpOnEveryExecutor) {
  testing::SmallWorkload wl = testing::make_workload(3);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  for (unsigned threads : {1u, 4u, 8u}) {
    WorkerPool pool(threads, kSpin);
    Collector got;
    for (const auto& executor : all_executors(pool, 4))
      EXPECT_EQ(executor->run(*alg, {}, {}, &got.fn).matches, 0u);
    EXPECT_TRUE(got.matches.empty());
  }
}

TEST(SchedulerTorture, SingleSeedMatchesSequential) {
  testing::SmallWorkload wl = testing::make_workload(91, 40, 130, 2, 1, 4, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(17);
  auto stream = graph::make_insert_stream(wl.graph, 0.2, rng);
  WorkerPool pool(8, kSpin);
  const auto executors = all_executors(pool, 4);
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    seeds.resize(1);  // a one-seed tree: everything hinges on splitting
    const MatchSet expected = sequential_reference(*alg, seeds);
    for (const auto& executor : executors) {
      Collector got;
      EXPECT_EQ(executor->run(*alg, seeds, {}, &got.fn).matches, expected.size())
          << scheduler_name(executor->scheduler());
      EXPECT_EQ(got.matches, expected) << scheduler_name(executor->scheduler());
    }
  }
}

/// Repeated runs on one persistent queue must not leak state across runs
/// (warm deques, recycled nodes, counter export) under either queue policy.
TEST(SchedulerTorture, PersistentQueueIsCleanAcrossRuns) {
  testing::SmallWorkload wl = testing::make_workload(77, 48, 150, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm("symbi");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(4);
  auto stream = graph::make_insert_stream(wl.graph, 0.3, rng);
  WorkerPool pool(4, kSpin);
  InnerExecutor central(pool, 3, Scheduler::kCentralQueue, kSpin);
  InnerExecutor stealing(pool, 3, Scheduler::kWorkStealing, kSpin);
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    const MatchSet expected = sequential_reference(*alg, seeds);
    for (InnerExecutor* executor : {&central, &stealing}) {
      const std::string_view name = scheduler_name(executor->scheduler());
      for (int rep = 0; rep < 3; ++rep) {
        Collector got;
        const InnerRunResult r = executor->run(*alg, seeds, {}, &got.fn);
        ASSERT_EQ(r.matches, expected.size()) << name << " rep " << rep;
        ASSERT_EQ(got.matches, expected) << name << " rep " << rep;
      }
    }
  }
}

}  // namespace
}  // namespace paracosm::engine
