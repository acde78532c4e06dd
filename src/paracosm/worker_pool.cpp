#include "paracosm/worker_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/trace_ring.hpp"
#include "util/hw_topo.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

namespace {

[[nodiscard]] std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             util::Clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkerPool::WorkerPool(unsigned num_threads, const PoolOptions& options)
    : spin_iters_(options.spin_iters) {
  const unsigned n = std::max(1u, num_threads);
  // Placement is computed only to pin, and only when the CPU ids are real.
  if (options.pin) {
    const util::HwTopology& topo = util::HwTopology::cached();
    if (topo.source == util::TopoSource::kSysfs) {
      for (const util::TopoCpu& c : util::assign_workers(topo, n))
        pin_cpus_.push_back(c.cpu);
      pinned_.store(true, std::memory_order_relaxed);
    }
  }
  slots_.reset(new Slot[n]);
  threads_.reserve(n);
  for (unsigned id = 0; id < n; ++id)
    threads_.emplace_back([this, id] { worker_loop(id); });
}

WorkerPool::~WorkerPool() {
  stopping_.store(true, std::memory_order_release);
  // atomic::wait only unblocks on a VALUE change, so bump the epoch too —
  // notify alone would let a parked worker re-block without seeing stopping_.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(const std::function<void(unsigned)>& job) {
  const unsigned n = size();
  const std::int64_t call_ns = wall_ns();
  job_ = &job;
  remaining_.store(n, std::memory_order_relaxed);
  // The release RMW publishes job_ and remaining_ to workers whose acquire
  // epoch load observes the new value.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  // Join: spin briefly (a worker on another core finishes fast), then park
  // on the remaining-count futex. Workers only notify on the 0 transition.
  util::SpinBackoff backoff;
  for (;;) {
    const unsigned left = remaining_.load(std::memory_order_acquire);
    if (left == 0) break;
    if (backoff.spins() < spin_iters_) {
      backoff.pause();
    } else {
      remaining_.wait(left, std::memory_order_acquire);
    }
  }
  job_ = nullptr;
  const std::int64_t ret_ns = wall_ns();

  std::int64_t first_start = ret_ns, last_end = call_ns;
  for (unsigned i = 0; i < n; ++i) {
    first_start =
        std::min(first_start, slots_[i].start_ns.load(std::memory_order_relaxed));
    last_end = std::max(last_end, slots_[i].end_ns.load(std::memory_order_relaxed));
  }
  last_dispatch_ns_ =
      std::max<std::int64_t>(0, first_start - call_ns) +
      std::max<std::int64_t>(0, ret_ns - last_end);
}

std::uint64_t WorkerPool::total_parks() const noexcept {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < size(); ++i)
    total += slots_[i].parks.load(std::memory_order_relaxed);
  return total;
}

void WorkerPool::worker_loop(unsigned id) {
  PARACOSM_TRACE_THREAD_NAME("worker " + std::to_string(id));
  if (!pin_cpus_.empty() && !util::pin_current_thread(pin_cpus_[id]))
    pinned_.store(false, std::memory_order_relaxed);
  Slot& slot = slots_[id];
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next epoch: spin (cheap wakeup) then park (cheap idle).
    util::SpinBackoff backoff;
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    while (e == seen) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (backoff.spins() < spin_iters_) {
        backoff.pause();
      } else {
        slot.parks.fetch_add(1, std::memory_order_relaxed);
        epoch_.wait(e, std::memory_order_acquire);
        backoff.reset();
      }
      e = epoch_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen = e;

    slot.start_ns.store(wall_ns(), std::memory_order_relaxed);
    (*job_)(id);
    slot.end_ns.store(wall_ns(), std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      remaining_.notify_all();
  }
}

}  // namespace paracosm::engine
