// Persistent worker pool with fork/join "parallel region" semantics.
//
// CSM streams contain many thousands of updates, so the pool must make a
// parallel region nearly free: the old design round-tripped every run()
// through a mutex + two condition variables (one futex syscall per worker per
// update in the common case). This version dispatches through a single epoch
// counter: run() bumps the epoch (one atomic RMW) and workers that are still
// inside their spin window pick the job up without any syscall; only workers
// whose spin budget expired are parked on the epoch futex
// (std::atomic::wait) and need a notify. Completion mirrors it: the caller
// spins briefly on the remaining-count, then parks on its futex.
//
// Per-worker state is cache-line aligned so epoch polling, job timestamps
// and park counters never false-share. Workers stamp wall-clock job
// start/end times, which lets run() separate *dispatch* overhead (wake
// latency + join latency) from the job itself — exported via
// last_dispatch_ns() and consumed by the executors' ParallelStats so pool
// overhead is visible in latency profiles instead of being silently folded
// into per-update cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace paracosm::engine {

/// Pool construction knobs.
struct PoolOptions {
  /// Epoch-poll iterations before a worker parks on the futex. The default
  /// favors low wake latency without monopolizing an oversubscribed core
  /// (the spin loop yields periodically).
  std::uint32_t spin_iters = 1024;

  /// Pin worker w to assign_workers(HwTopology::cached(), size())[w].cpu.
  /// Honored only when that topology came from sysfs (real CPU ids); a flat
  /// fallback topology is never pinned.
  bool pin = false;
};

class WorkerPool {
 public:
  /// `spin_iters`: see PoolOptions::spin_iters.
  explicit WorkerPool(unsigned num_threads, std::uint32_t spin_iters = 1024)
      : WorkerPool(num_threads, PoolOptions{spin_iters}) {}
  WorkerPool(unsigned num_threads, const PoolOptions& options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Execute job(worker_id) on every worker; blocks until all return.
  /// The job must not call run() recursively.
  void run(const std::function<void(unsigned)>& job);

  /// Dispatch overhead of the most recent run(): wall time from the run()
  /// call to the first worker starting, plus from the last worker finishing
  /// to run() returning. Excludes the job itself.
  [[nodiscard]] std::int64_t last_dispatch_ns() const noexcept {
    return last_dispatch_ns_;
  }

  /// Cumulative spin->park transitions across all workers since startup.
  [[nodiscard]] std::uint64_t total_parks() const noexcept;

  /// Workers actually pinned (pin requested, sysfs topology, all masks
  /// accepted by the kernel). Final once the first run() has returned.
  [[nodiscard]] bool pinned() const noexcept {
    return pinned_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> start_ns{0};  ///< job start, wall clock
    std::atomic<std::int64_t> end_ns{0};    ///< job end, wall clock
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_loop(unsigned id);

  const std::uint32_t spin_iters_;
  std::vector<unsigned> pin_cpus_;  ///< per-worker CPU; empty when not pinning
  std::atomic<bool> pinned_{false};
  std::unique_ptr<Slot[]> slots_;
  const std::function<void(unsigned)>* job_ = nullptr;

  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<unsigned> remaining_{0};
  alignas(64) std::atomic<bool> stopping_{false};
  std::int64_t last_dispatch_ns_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace paracosm::engine
