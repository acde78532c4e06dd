#include "paracosm/inner_executor.hpp"

#include <atomic>

#include "obs/trace_ring.hpp"
#include "paracosm/match_buffer.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

namespace {

/// Stealing policy: tasks an owner keeps stealable in its own deque.
constexpr std::size_t kPrimedTasks = 4;

/// Split hook handed to the traversal routine during the parallel phase.
/// Central queue: the paper's `HasIdleThreads() && CQ.is_empty() && depth <
/// SPLIT_DEPTH`. Work stealing: keep the owner's deque primed with stealable
/// work while the depth budget lasts, without flooding it.
class SplitRule final : public csm::SplitHook {
 public:
  SplitRule(TaskQueue& queue, unsigned wid, std::uint32_t split_depth,
            bool stealing, WorkerStats& ws) noexcept
      : queue_(queue), wid_(wid), split_depth_(split_depth),
        stealing_(stealing), ws_(ws) {}

  [[nodiscard]] bool want_offload(std::uint32_t depth) noexcept override {
    if (depth >= split_depth_) return false;
    if (stealing_) return queue_.local_size(wid_) < kPrimedTasks;
    return queue_.approx_size() == 0 && queue_.has_idle_workers();
  }
  void offload(csm::SearchTask&& task) override {
    ++ws_.offloads;
    PARACOSM_TRACE_INSTANT(obs::EventKind::kResplit, task.depth());
    queue_.push(wid_, std::move(task));
  }

 private:
  TaskQueue& queue_;
  unsigned wid_;
  std::uint32_t split_depth_;
  bool stealing_;
  WorkerStats& ws_;
};

/// Initialization-phase hook: Traverse_Next_Layer — always offload the
/// direct children of the task being expanded (round-robin across deques).
class ForcedSplitHook final : public csm::SplitHook {
 public:
  ForcedSplitHook(TaskQueue& queue, std::uint32_t at_depth) noexcept
      : queue_(queue), at_depth_(at_depth) {}

  [[nodiscard]] bool want_offload(std::uint32_t depth) noexcept override {
    return depth == at_depth_;
  }
  void offload(csm::SearchTask&& task) override { queue_.seed(std::move(task)); }

 private:
  TaskQueue& queue_;
  std::uint32_t at_depth_;
};

}  // namespace

InnerExecutor::InnerExecutor(WorkerPool& pool, std::uint32_t split_depth,
                             Scheduler scheduler, std::uint32_t queue_spin_iters)
    : pool_(pool),
      split_depth_(split_depth),
      scheduler_(scheduler),
      queue_(pool.victim_table(), queue_spin_iters) {}

InnerRunResult InnerExecutor::run(
    const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
    util::Clock::time_point deadline,
    const std::function<void(std::span<const csm::Assignment>)>* on_match,
    util::CancelView cancel) {
  InnerRunResult result;
  if (seeds.empty()) return result;
  const unsigned n = pool_.size();
  result.stats.ensure_size(n);

  // Per-worker match logs (last slot = the single-threaded init phase);
  // merged and delivered in deterministic order at quiescence.
  std::vector<MatchBuffer> match_bufs;
  if (on_match != nullptr) match_bufs.resize(n + 1);
  const auto make_sink = [&](unsigned slot) {
    csm::MatchSink sink;
    sink.deadline = deadline;
    sink.cancel = cancel;
    if (on_match != nullptr)
      sink.on_match = [buf = &match_bufs[slot]](std::span<const csm::Assignment> m) {
        buf->append(m);
      };
    return sink;
  };

  std::atomic<bool> any_timed_out{false};
  std::atomic<bool> any_cancelled{false};
  const auto finish_worker = [&](const csm::MatchSink& sink, WorkerStats& ws) {
    ws.nodes += sink.nodes;
    ws.matches += sink.matches;
    if (sink.timed_out()) any_timed_out.store(true, std::memory_order_relaxed);
    if (sink.cancelled()) any_cancelled.store(true, std::memory_order_relaxed);
  };

  if (scheduler_ == Scheduler::kStatic) {
    // Round-robin partition, no queue, no splitting: each worker owns a
    // fixed share of the root tasks regardless of how skewed their subtrees
    // are.
    std::vector<std::vector<csm::SearchTask>> shares(n);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      shares[i % n].push_back(std::move(seeds[i]));
    pool_.run([&](unsigned wid) {
      WorkerStats& ws = result.stats.workers[wid];
      csm::MatchSink sink = make_sink(wid);
      util::ThreadCpuTimer timer;
      for (const csm::SearchTask& task : shares[wid]) {
        if (cancel.active() && cancel.cancelled()) {
          sink.mark_cancelled();
          break;
        }
        {
          PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand,
                              task.depth());
          alg.expand(task, sink, nullptr);
        }
        ++ws.tasks;
        if (sink.stopped()) break;
      }
      ws.busy_ns += timer.elapsed_ns();
      finish_worker(sink, ws);
    });
  } else {
    util::ThreadCpuTimer serial_timer;
    for (csm::SearchTask& seed : seeds) queue_.seed(std::move(seed));

    if (scheduler_ == Scheduler::kCentralQueue) {
      // Initialization phase: BFS-expand shallow tasks until there is
      // enough fan-out for every worker. Tasks at or beyond SPLIT_DEPTH are
      // parked — further splitting is not allowed for them anyway.
      csm::MatchSink init_sink = make_sink(n);
      std::vector<csm::SearchTask> parked;
      while (queue_.approx_size() + parked.size() < n) {
        auto task = queue_.try_pop();
        if (!task) break;
        if (task->depth() >= split_depth_) {
          parked.push_back(std::move(*task));
          continue;  // in_flight stays raised; re-pushed below
        }
        ForcedSplitHook hook(queue_, task->depth());
        alg.expand(*task, init_sink, &hook);
        queue_.retire();
        if (init_sink.stopped()) break;
      }
      // Re-queue parked tasks without double-counting in_flight.
      for (csm::SearchTask& task : parked) {
        queue_.seed(std::move(task));
        queue_.retire();
      }
      result.matches += init_sink.matches;
      result.nodes += init_sink.nodes;
      result.timed_out = init_sink.timed_out();
      result.cancelled = init_sink.cancelled();
    }
    result.stats.serial_ns += serial_timer.elapsed_ns();

    const bool stealing = scheduler_ == Scheduler::kWorkStealing;
    pool_.run([&](unsigned wid) {
      WorkerStats& ws = result.stats.workers[wid];
      csm::MatchSink sink = make_sink(wid);
      SplitRule hook(queue_, wid, split_depth_, stealing, ws);
      // expand() draws its partial-match state from this worker's
      // thread_local SearchScratch pool (csm/scratch.hpp), so the loop below
      // performs no per-task allocations once the pool has warmed up. Busy
      // time covers pop + expand but not the idle spin inside pop_or_finish,
      // keeping the simulated-makespan accounting comparable across
      // schedulers.
      while (auto task = queue_.pop_or_finish(wid)) {
        // Dispatch-path cancel check: a cancelled epoch drains the queue
        // without expanding, so workers converge even when individual tasks
        // are tiny and never reach the in-search amortized probe.
        if (cancel.active() && cancel.cancelled()) {
          sink.mark_cancelled();
          queue_.retire();
          ++ws.tasks;
          continue;
        }
        util::ThreadCpuTimer timer;
        {
          PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand,
                              task->depth());
          alg.expand(*task, sink, &hook);
        }
        queue_.retire();
        ++ws.tasks;
        ws.busy_ns += timer.elapsed_ns();
      }
      finish_worker(sink, ws);
      queue_.export_counters(wid, ws);
    });
  }

  result.stats.dispatch_ns += pool_.last_dispatch_ns();
  for (const WorkerStats& ws : result.stats.workers) {
    result.matches += ws.matches;
    result.nodes += ws.nodes;
  }
  result.timed_out =
      result.timed_out || any_timed_out.load(std::memory_order_relaxed);
  result.cancelled =
      result.cancelled || any_cancelled.load(std::memory_order_relaxed);

  if (on_match != nullptr) emit_merged_sorted(match_bufs, *on_match);
  return result;
}

InnerRuntime::InnerRuntime(const Config& config)
    : pool(config.effective_threads(),
           PoolOptions{.spin_iters = config.pool_spin_iters,
                       .pin = config.pin_threads}),
      inner(pool, config.split_depth, config.scheduler, config.queue_spin_iters) {}

}  // namespace paracosm::engine
