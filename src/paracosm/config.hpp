// Framework configuration knobs (paper §4 and DESIGN.md §4).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/hw_topo.hpp"

namespace paracosm::engine {

/// Inner-update scheduling strategy (inner_executor.hpp).
enum class Scheduler : std::uint8_t {
  /// The paper's Algorithm 2: one concurrent queue, idle-triggered
  /// re-splitting.
  kCentralQueue,
  /// The same queue with owners keeping their deques primed for thieves;
  /// faster when updates produce plentiful fan-out (DESIGN.md §4).
  kWorkStealing,
  /// Static round-robin seed partition, no re-balancing: the "unbalanced"
  /// baseline of the paper's Figure 10.
  kStatic,
};

[[nodiscard]] constexpr std::string_view scheduler_name(Scheduler s) noexcept {
  switch (s) {
    case Scheduler::kCentralQueue: return "central";
    case Scheduler::kWorkStealing: return "stealing";
    case Scheduler::kStatic: return "static";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<Scheduler> parse_scheduler(
    std::string_view name) noexcept {
  if (name == "central") return Scheduler::kCentralQueue;
  if (name == "stealing") return Scheduler::kWorkStealing;
  if (name == "static") return Scheduler::kStatic;
  return std::nullopt;
}

/// Semantics of the inter-update batch executor.
enum class BatchMode : std::uint8_t {
  /// Paper-faithful: every update of a batch is classified against the
  /// batch-start snapshot; all safe updates are applied.
  kPaper,
  /// Default: additionally defers any update whose endpoints were already
  /// touched inside the current batch, making parallel batches provably
  /// equivalent to sequential processing (DESIGN.md §4).
  kStrict,
};

struct Config {
  /// Worker threads for both executors. 0 -> CPUs in the affinity mask
  /// (sched_getaffinity), so taskset/cgroup-restricted runs don't
  /// oversubscribe the way hardware_concurrency() would.
  unsigned threads = 0;

  /// Maximum search-tree depth at which the inner-update executor may still
  /// split a task into subtasks (SPLIT_DEPTH in Algorithm 2).
  std::uint32_t split_depth = 4;

  /// Updates per inter-update batch (k in §4.2). 0 -> same as threads.
  unsigned batch_size = 0;

  /// Enable inner-update parallelism (parallel search-tree exploration).
  bool inner_parallelism = true;

  /// Enable inter-update parallelism (classifier + batch executor).
  bool inter_parallelism = true;

  BatchMode batch_mode = BatchMode::kStrict;

  Scheduler scheduler = Scheduler::kCentralQueue;

  /// Idle-protocol knobs of the low-contention runtime (DESIGN.md §5).
  /// Spin iterations a worker hunts for stealable work before parking on the
  /// queue's condvar. Parked workers still satisfy HasIdleThreads(), so the
  /// split predicate is unaffected; the knob only trades wake latency
  /// against burned cycles on oversubscribed machines.
  std::uint32_t queue_spin_iters = 256;

  /// Spin iterations a pool worker polls the dispatch epoch before parking
  /// on the epoch futex. Larger values make back-to-back updates dispatch
  /// syscall-free; smaller values release the core sooner.
  std::uint32_t pool_spin_iters = 1024;

  /// Pin each pool worker to its assigned CPU (util::assign_workers:
  /// distinct cores before SMT siblings). Only takes effect when the
  /// topology came from a real sysfs tree — the flat fallback carries CPU
  /// ids that may not exist, so pinning is skipped for it.
  bool pin_threads = false;

  [[nodiscard]] unsigned effective_threads() const {
    if (threads != 0) return threads;
    return util::affinity_cpu_count();
  }
  [[nodiscard]] unsigned effective_batch_size() const noexcept {
    return batch_size != 0 ? batch_size : effective_threads();
  }
};

}  // namespace paracosm::engine
