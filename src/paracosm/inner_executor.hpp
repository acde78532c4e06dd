// Inner-update executor (paper §4.1, Algorithm 2).
//
// Config::scheduler picks how one update's search tree is spread over the
// pool:
//   * kCentralQueue (the paper) — initialization phase: root-level tasks
//     (the update's seeds) are expanded breadth-first on the main thread
//     until the concurrent queue holds at least one task per worker,
//     decomposing the search tree into independent subtrees. Parallel
//     phase: workers pop tasks and run the algorithm's own traversal
//     routine; the injected split hook re-offloads direct subtasks whenever
//     idle workers are observed, the queue is empty, and the depth is below
//     SPLIT_DEPTH — the paper's adaptive task-sharing rule.
//   * kWorkStealing — no initialization phase; the split hook keeps each
//     owner's deque primed with a few stealable tasks while the depth budget
//     lasts, whether or not anyone is idle yet. Owners pop LIFO (deepest
//     subtree first), thieves steal FIFO (largest remaining subtrees first).
//   * kStatic — round-robin seed partition with no queue and no splitting:
//     the "unbalanced" baseline of the paper's Figure 10.
//
// Both queue policies share one worker loop and one concurrent queue — the
// lock-free per-worker-deque CQ of task_queue.hpp, which PERSISTS across
// run() calls so steady-state updates reuse warm deque rings and recycled
// task nodes. Match callbacks are buffered per worker and delivered merged +
// lexicographically sorted after quiescence (match_buffer.hpp) — no lock on
// the match path.
#pragma once

#include <functional>
#include <span>

#include "csm/algorithm.hpp"
#include "paracosm/config.hpp"
#include "paracosm/stats.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/cancel.hpp"

namespace paracosm::engine {

struct InnerRunResult {
  std::uint64_t matches = 0;
  std::uint64_t nodes = 0;
  bool timed_out = false;
  bool cancelled = false;
  ParallelStats stats;
};

class InnerExecutor {
 public:
  /// `queue_spin_iters`: see TaskQueue's constructor. `pool` must outlive
  /// the executor.
  InnerExecutor(WorkerPool& pool, std::uint32_t split_depth,
                Scheduler scheduler = Scheduler::kCentralQueue,
                std::uint32_t queue_spin_iters = 256);

  InnerExecutor(const InnerExecutor&) = delete;
  InnerExecutor& operator=(const InnerExecutor&) = delete;

  /// Explore all seeds' subtrees in parallel. `on_match` (optional) is
  /// delivered after quiescence, on the calling thread, in lexicographic
  /// (qv, dv) mapping order — deterministic for a given match set.
  [[nodiscard]] InnerRunResult run(
      const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
      util::Clock::time_point deadline = {},
      const std::function<void(std::span<const csm::Assignment>)>* on_match = nullptr,
      util::CancelView cancel = {});

  [[nodiscard]] Scheduler scheduler() const noexcept { return scheduler_; }

 private:
  WorkerPool& pool_;
  const std::uint32_t split_depth_;
  Scheduler scheduler_;
  TaskQueue queue_;  ///< persistent CQ, warm across updates
};

/// The inner-update runtime each engine owns, built from Config: the worker
/// pool (threads, dispatch spin budget, pinning) and the executor over it.
struct InnerRuntime {
  explicit InnerRuntime(const Config& config);

  WorkerPool pool;
  InnerExecutor inner;
};

}  // namespace paracosm::engine
