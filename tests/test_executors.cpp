// Tests for the parallel building blocks: Chase–Lev deque, task queue,
// worker pool, and the inner-update executor (Algorithm 2).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "paracosm/cl_deque.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

csm::SearchTask make_task(std::uint32_t depth) {
  csm::SearchTask t;
  for (std::uint32_t i = 0; i < depth; ++i) t.assigned.push_back({i, i});
  return t;
}

/// Victim table of an n-worker single-node machine (empty remote tier).
util::VictimTable flat_victims(unsigned n) {
  return util::make_victim_table(util::assign_workers(util::HwTopology::flat(n), n));
}

constexpr std::array<Scheduler, 3> kSchedulers = {
    Scheduler::kCentralQueue, Scheduler::kWorkStealing, Scheduler::kStatic};

TEST(ChaseLevDeque, OwnerPopsLifoThiefStealsFifo) {
  std::array<int, 3> vals = {10, 20, 30};
  ChaseLevDeque<int*> dq;
  for (int& v : vals) dq.push_bottom(&v);
  EXPECT_EQ(dq.size_approx(), 3u);
  EXPECT_EQ(dq.steal_top(), &vals[0]);   // FIFO from the top
  EXPECT_EQ(dq.pop_bottom(), &vals[2]);  // LIFO from the bottom
  EXPECT_EQ(dq.pop_bottom(), &vals[1]);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
  EXPECT_EQ(dq.steal_top(), nullptr);
  EXPECT_TRUE(dq.empty_approx());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacityPreservingOrder) {
  constexpr int kItems = 1000;
  std::vector<int> vals(kItems);
  ChaseLevDeque<int*> dq(8);
  const std::size_t cap0 = dq.capacity();
  for (int i = 0; i < kItems; ++i) dq.push_bottom(&vals[i]);
  EXPECT_GT(dq.capacity(), cap0);
  EXPECT_EQ(dq.size_approx(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(dq.steal_top(), &vals[i]);
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(ChaseLevDeque, ConcurrentStealsClaimEveryElementExactlyOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> claimed(kItems);
  ChaseLevDeque<int*> dq;

  std::atomic<bool> done{false};
  std::atomic<int> total{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || !dq.empty_approx()) {
        if (int* p = dq.steal_top()) {
          claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
          total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Owner: interleave pushes with occasional pops.
  for (int i = 0; i < kItems; ++i) {
    dq.push_bottom(&vals[i]);
    if ((i & 7) == 0) {
      if (int* p = dq.pop_bottom()) {
        claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (int* p = dq.pop_bottom()) {  // anything the thieves left behind
    claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
    total.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(total.load(), kItems);
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(claimed[i].load(), 1) << "item " << i;
}

TEST(TaskQueue, SeedTryPopRetireSingleThread) {
  const util::VictimTable victims = flat_victims(1);
  TaskQueue queue(victims);
  queue.seed(make_task(2));
  queue.seed(make_task(3));
  EXPECT_EQ(queue.approx_size(), 2u);
  EXPECT_EQ(queue.in_flight(), 2);
  auto t1 = queue.try_pop();
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->depth(), 2u);  // FIFO
  queue.retire();
  auto t2 = queue.pop_or_finish(0);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->depth(), 3u);
  queue.retire();
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_FALSE(queue.pop_or_finish(0).has_value());
}

TEST(TaskQueue, TryPopOnEmptyReturnsNullopt) {
  const util::VictimTable victims = flat_victims(4);
  TaskQueue queue(victims);
  EXPECT_FALSE(queue.try_pop().has_value());
  EXPECT_FALSE(queue.pop_or_finish(2).has_value());
}

TEST(TaskQueue, OwnerPushIsLifoForOwnerFifoForTryPop) {
  const util::VictimTable victims = flat_victims(2);
  TaskQueue queue(victims);
  queue.push(0, make_task(1));
  queue.push(0, make_task(2));
  queue.push(0, make_task(3));
  auto own = queue.pop_or_finish(0);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->depth(), 3u);  // owner pops its own deque LIFO
  auto stolen = queue.pop_or_finish(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->depth(), 1u);  // thief steals the oldest
  queue.retire();
  queue.retire();
  auto last = queue.pop_or_finish(1);
  ASSERT_TRUE(last.has_value());
  queue.retire();
  EXPECT_EQ(queue.in_flight(), 0);
}

TEST(TaskQueue, MpmcStressCompletesAllTasks) {
  constexpr unsigned kWorkers = 4;
  const util::VictimTable victims = flat_victims(kWorkers);
  TaskQueue queue(victims, 16);
  constexpr int kSeeds = 64;
  constexpr int kChildrenPerSeed = 16;
  for (int i = 0; i < kSeeds; ++i) queue.seed(make_task(1));

  std::atomic<int> executed{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (auto task = queue.pop_or_finish(w)) {
        if (task->depth() == 1)
          for (int c = 0; c < kChildrenPerSeed; ++c) queue.push(w, make_task(2));
        executed.fetch_add(1, std::memory_order_relaxed);
        queue.retire();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(executed.load(), kSeeds + kSeeds * kChildrenPerSeed);
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_EQ(queue.approx_size(), 0u);

  // Scheduler counters drained into WorkerStats; on a flat machine every
  // steal is priced same-node or local.
  WorkerStats ws;
  for (unsigned w = 0; w < kWorkers; ++w) queue.export_counters(w, ws);
  EXPECT_GE(ws.steals_attempted, ws.steals_succeeded);
  EXPECT_EQ(ws.steals_remote, 0u);
  EXPECT_EQ(ws.steals_local + ws.steals_same_node, ws.steals_succeeded);
}

TEST(WorkerPool, RunsJobOnEveryWorker) {
  WorkerPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
  std::vector<std::atomic<int>> hits(5);
  pool.run([&](unsigned wid) { hits[wid].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, SequentialRunsReuseWorkers) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerPool, ZeroThreadsClampedToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.run([&](unsigned) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(WorkerPool, ReportsDispatchOverhead) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run([&](unsigned) { total.fetch_add(1); });
    EXPECT_GE(pool.last_dispatch_ns(), 0);
  }
  EXPECT_EQ(total.load(), 30);
}

TEST(WorkerPool, ParksWhenSpinBudgetIsZero) {
  WorkerPool pool(2, /*spin_iters=*/0);
  const std::uint64_t parks0 = pool.total_parks();
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
  // With no spin window every worker must have parked at least once.
  EXPECT_GT(pool.total_parks(), parks0);
}

struct ExecCase {
  unsigned threads;
  std::uint32_t split_depth;
  Scheduler scheduler;
};

class InnerExecutorTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(InnerExecutorTest, MatchesSequentialEnumeration) {
  const ExecCase& c = GetParam();
  WorkerPool pool(c.threads);
  for (const auto& [name, workload_seed, stream_seed] :
       {std::tuple{"graphflow", 321, 5}, std::tuple{"symbi", 876, 9}}) {
    testing::SmallWorkload wl =
        testing::make_workload(workload_seed, 48, 140, 2, 1, 5, 0.0, 0.0);
    auto alg = csm::make_algorithm(name);
    alg->attach(wl.query, wl.graph);

    // Collect per-update seeds over a synthetic set of probe edges: use real
    // stream updates applied to the graph.
    util::Rng rng(stream_seed);
    auto stream = graph::make_insert_stream(wl.graph, 0.25, rng);
    InnerExecutor executor(pool, c.split_depth, c.scheduler);

    for (const auto& upd : stream) {
      ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
      alg->on_edge_inserted(upd);
      std::vector<csm::SearchTask> seeds;
      alg->seeds(upd, seeds);

      csm::MatchSink seq;
      for (const auto& task : seeds) alg->expand(task, seq, nullptr);

      const InnerRunResult par = executor.run(*alg, seeds);
      EXPECT_EQ(par.matches, seq.matches) << name;
      EXPECT_FALSE(par.timed_out) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerExecutorTest,
    ::testing::Values(ExecCase{1, 4, Scheduler::kCentralQueue},
                      ExecCase{2, 4, Scheduler::kCentralQueue},
                      ExecCase{4, 0, Scheduler::kCentralQueue},
                      ExecCase{4, 2, Scheduler::kCentralQueue},
                      ExecCase{4, 8, Scheduler::kCentralQueue},
                      ExecCase{8, 3, Scheduler::kCentralQueue},
                      ExecCase{4, 4, Scheduler::kStatic},
                      ExecCase{2, 0, Scheduler::kStatic},
                      ExecCase{1, 4, Scheduler::kWorkStealing},
                      ExecCase{2, 0, Scheduler::kWorkStealing},
                      ExecCase{4, 2, Scheduler::kWorkStealing},
                      ExecCase{4, 8, Scheduler::kWorkStealing},
                      ExecCase{8, 3, Scheduler::kWorkStealing}),
    [](const ::testing::TestParamInfo<ExecCase>& info) {
      // "dyn": Algorithm 2's dynamic re-splitting on the central queue.
      const Scheduler s = info.param.scheduler;
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_d";
      name += std::to_string(info.param.split_depth);
      name += '_';
      name += s == Scheduler::kCentralQueue ? "dyn" : scheduler_name(s);
      return name;
    });

// The work-stealing executor is InnerExecutor's kWorkStealing scheduler.
TEST(StealingExecutor, EmptySeedsAreANoOp) {
  WorkerPool pool(2);
  InnerExecutor executor(pool, 4, Scheduler::kWorkStealing);
  auto alg = csm::make_algorithm("graphflow");
  testing::SmallWorkload wl = testing::make_workload(2);
  alg->attach(wl.query, wl.graph);
  const InnerRunResult r = executor.run(*alg, {});
  EXPECT_EQ(r.matches, 0u);
  EXPECT_EQ(r.nodes, 0u);
}

TEST(InnerExecutor, EmptySeedsAreANoOp) {
  WorkerPool pool(2);
  auto alg = csm::make_algorithm("graphflow");
  testing::SmallWorkload wl = testing::make_workload(1);
  alg->attach(wl.query, wl.graph);
  for (const Scheduler s : kSchedulers) {
    InnerExecutor executor(pool, 4, s);
    const InnerRunResult r = executor.run(*alg, {});
    EXPECT_EQ(r.matches, 0u) << scheduler_name(s);
    EXPECT_EQ(r.nodes, 0u) << scheduler_name(s);
  }
}

TEST(InnerExecutor, WorkerStatsAccountAllNodes) {
  testing::SmallWorkload wl = testing::make_workload(654, 40, 120, 1, 1, 4, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(6);
  auto stream = graph::make_insert_stream(wl.graph, 0.2, rng);
  WorkerPool pool(4);
  std::vector<std::unique_ptr<InnerExecutor>> executors;
  for (const Scheduler s : kSchedulers)
    executors.push_back(std::make_unique<InnerExecutor>(pool, 3, s));
  for (const auto& upd : stream) {
    wl.graph.add_edge(upd.u, upd.v, upd.label);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    for (const auto& executor : executors) {
      const InnerRunResult r = executor->run(*alg, seeds);
      std::uint64_t worker_nodes = 0, worker_matches = 0;
      for (const auto& w : r.stats.workers) {
        worker_nodes += w.nodes;
        worker_matches += w.matches;
      }
      // Total = init-phase nodes + worker nodes.
      const std::string_view name = scheduler_name(executor->scheduler());
      EXPECT_GE(r.nodes, worker_nodes) << name;
      EXPECT_GE(r.matches, worker_matches) << name;
      EXPECT_GE(r.stats.sequential_equivalent_ns(), r.stats.simulated_makespan_ns())
          << name;
    }
  }
}

TEST(InnerExecutor, DeadlineAbortsAndTerminates) {
  util::Rng rng(77);
  graph::DataGraph g = graph::generate_erdos_renyi(64, 1400, 1, 1, rng);
  auto q = graph::extract_query(g, 8, rng);
  ASSERT_TRUE(q.has_value());
  auto alg = csm::make_algorithm("graphflow");
  auto stream = graph::make_insert_stream(g, 0.05, rng);
  alg->attach(*q, g);
  WorkerPool pool(4);
  std::vector<std::unique_ptr<InnerExecutor>> executors;
  std::array<bool, kSchedulers.size()> saw_timeout{};
  for (const Scheduler s : kSchedulers)
    executors.push_back(std::make_unique<InnerExecutor>(pool, 4, s));
  for (const auto& upd : stream) {
    g.add_edge(upd.u, upd.v, upd.label);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    for (std::size_t i = 0; i < executors.size(); ++i) {
      const InnerRunResult r = executors[i]->run(
          *alg, seeds, util::Clock::now() - std::chrono::milliseconds(1));
      saw_timeout[i] = saw_timeout[i] || r.timed_out;
    }
  }
  for (std::size_t i = 0; i < executors.size(); ++i)
    EXPECT_TRUE(saw_timeout[i]) << scheduler_name(kSchedulers[i]);
}

}  // namespace
}  // namespace paracosm::engine
