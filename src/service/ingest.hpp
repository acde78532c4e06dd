// Bounded ingest ring between the stream reader and the executors
// (DESIGN.md §7.1).
//
// The ring is a fixed-capacity Vyukov-style MPMC queue (per-cell sequence
// numbers, two monotonic cursors) used MPSC here: any number of producer
// threads call push(), the single service consumer calls pop_wait(). Bounding
// the ring is the whole point — it converts an ingest burst into an explicit,
// *observable* overload event instead of an unbounded heap of queued work.
// The idle consumer spins, yields, then parks on a futex flag; a producer
// pays for a wake only when that flag is set (pop_wait, wake_consumer).
// What happens at the full-ring edge is the overload policy:
//
//   kBlock   — the producer backs off (spin → yield → sleep, exponential)
//              until space frees; classic backpressure. Time spent is
//              accounted in blocked_ns.
//   kShed    — push returns kShed immediately; the caller moves the update
//              to a defer log and retries later (delayed, never dropped).
//   kDegrade — the update is still admitted (blocking) but flagged degraded:
//              the consumer processes it count-only, skipping per-mapping
//              delivery — the expensive half of a match-heavy update. ΔM
//              counts and graph/ADS state stay exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "paracosm/stats.hpp"

namespace paracosm::service {

enum class OverloadPolicy : std::uint8_t { kBlock, kShed, kDegrade };

[[nodiscard]] constexpr const char* to_string(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kShed: return "shed";
    case OverloadPolicy::kDegrade: return "degrade";
  }
  return "?";
}

enum class PushResult : std::uint8_t {
  kOk,        ///< admitted
  kDegraded,  ///< admitted, demoted to count-only delivery
  kShed,      ///< rejected: caller must defer-log it
  kClosed,    ///< queue closed; nothing admitted
};

/// A catalogue change or barrier from StreamService's admin plane
/// (service.hpp), defined in service.cpp.
struct AdminOp;

/// One admitted ring entry. `degraded` rides with the update so the consumer
/// knows to suppress per-mapping delivery for exactly the overload victims.
/// A non-null `admin` makes the entry an admin op instead of an update: it
/// travels in-band, so it is ordered with the updates around it.
struct IngestItem {
  graph::GraphUpdate upd;
  bool degraded = false;
  AdminOp* admin = nullptr;
};

class IngestQueue {
 public:
  /// Capacity is rounded up to a power of two (min 2).
  IngestQueue(std::size_t capacity, OverloadPolicy policy);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Producer side; applies the overload policy at the full-ring edge.
  [[nodiscard]] PushResult push(const graph::GraphUpdate& upd);

  /// Admit an admin op, backing off while the ring is full whatever the
  /// policy: admin ops are never shed or degraded, and stats() does not count
  /// them. A closed queue drops the op.
  void push_admin(AdminOp* op);

  /// Consumer side (one caller at a time): blocks until an item arrives or
  /// the queue is closed *and* drained. Returns false on the latter — the
  /// consumer's termination signal. An empty ring is polled for a short spin
  /// and yield phase, then the consumer parks on the futex until a push or
  /// close() wakes it; there is no timed wake-up.
  [[nodiscard]] bool pop_wait(IngestItem& out);

  /// Non-blocking pop (runs, drain paths and tests).
  [[nodiscard]] bool try_pop(IngestItem& out);

  /// After close(), pushes return kClosed and pop_wait drains then stops.
  /// Wakes a parked consumer.
  void close() noexcept;
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }
  [[nodiscard]] std::size_t approx_size() const noexcept;

  /// Consistent-enough snapshot of the producer/consumer counters.
  [[nodiscard]] engine::IngestStats stats() const;

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    IngestItem item;
  };

  [[nodiscard]] bool try_push(const IngestItem& item);
  void note_depth() noexcept;
  void park();
  void wake_consumer() noexcept;

  std::vector<Cell> cells_;
  std::size_t mask_;
  OverloadPolicy policy_;
  std::atomic<bool> closed_{false};

  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  /// 1 while the consumer sleeps on it (or is about to); the futex word.
  alignas(64) std::atomic<std::uint32_t> parked_{0};

  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> blocked_pushes_{0};
  std::atomic<std::int64_t> blocked_ns_{0};
  std::atomic<std::uint64_t> high_water_{0};
  std::atomic<std::uint64_t> parks_{0};
};

}  // namespace paracosm::service
