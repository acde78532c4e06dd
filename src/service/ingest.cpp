#include "service/ingest.hpp"

#include <chrono>
#include <thread>

#include "util/timer.hpp"

namespace paracosm::service {

namespace {

/// Spin → yield → sleep schedule. A producer blocked on a full ring (and
/// push_admin) runs all of it: sleep doubles up to ~1ms so a stalled consumer
/// costs microseconds of latency, not a hot core. The idle consumer runs the
/// spin and yield phases only, then parks.
struct Backoff {
  unsigned round = 0;

  /// The spin and yield phases are over: the next wait() would sleep.
  [[nodiscard]] bool polled_out() const noexcept { return round >= 96; }

  void wait() noexcept {
    if (round < 64) {
      // busy spin
    } else if (round < 96) {
      std::this_thread::yield();
    } else {
      const unsigned exp = round - 96 < 10 ? round - 96 : 10;
      std::this_thread::sleep_for(std::chrono::microseconds(1u << exp));
    }
    ++round;
  }
};

[[nodiscard]] std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

IngestQueue::IngestQueue(std::size_t capacity, OverloadPolicy policy)
    : cells_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(cells_.size() - 1),
      policy_(policy) {
  for (std::size_t i = 0; i < cells_.size(); ++i)
    cells_[i].seq.store(i, std::memory_order_relaxed);
}

bool IngestQueue::try_push(const IngestItem& item) {
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (diff == 0) {
      // seq_cst: the producer's half of the wake handshake (park()). On x86
      // every locked cmpxchg is a full barrier already.
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        cell.item = item;
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // full
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool IngestQueue::try_pop(IngestItem& out) {
  std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff = static_cast<std::intptr_t>(seq) -
                      static_cast<std::intptr_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        out = cell.item;
        cell.seq.store(pos + cells_.size(), std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // empty
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
}

void IngestQueue::note_depth() noexcept {
  const std::size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
  const std::size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
  const std::uint64_t depth = enq > deq ? enq - deq : 0;
  std::uint64_t seen = high_water_.load(std::memory_order_relaxed);
  while (depth > seen && !high_water_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

std::size_t IngestQueue::approx_size() const noexcept {
  const std::size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
  const std::size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
  return enq > deq ? enq - deq : 0;
}

void IngestQueue::wake_consumer() noexcept {
  // A busy consumer costs one load here. The exchange lets only one of
  // several racing producers pay for the futex wake.
  if (parked_.load(std::memory_order_seq_cst) != 0 &&
      parked_.exchange(0, std::memory_order_seq_cst) != 0)
    parked_.notify_one();
}

void IngestQueue::park() {
  // Dekker handshake with try_push's seq_cst CAS and wake_consumer(): publish
  // the flag, then re-read the enqueue cursor and closed_. A push or close()
  // ahead of the flag in the total order shows up here; one behind it sees
  // the flag and clears it, which the wait below checks for.
  parked_.store(1, std::memory_order_seq_cst);
  if (enqueue_pos_.load(std::memory_order_seq_cst) !=
          dequeue_pos_.load(std::memory_order_relaxed) ||
      closed_.load(std::memory_order_seq_cst)) {
    parked_.store(0, std::memory_order_relaxed);
    return;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  parked_.wait(1, std::memory_order_acquire);  // until a waker clears the flag
}

void IngestQueue::close() noexcept {
  closed_.store(true, std::memory_order_seq_cst);
  wake_consumer();
}

PushResult IngestQueue::push(const graph::GraphUpdate& upd) {
  if (closed()) return PushResult::kClosed;
  IngestItem item{upd, false, nullptr};
  if (try_push(item)) {
    wake_consumer();
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    note_depth();
    return PushResult::kOk;
  }

  // Full ring: the overload edge.
  if (policy_ == OverloadPolicy::kShed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kShed;
  }
  if (policy_ == OverloadPolicy::kDegrade) item.degraded = true;

  blocked_pushes_.fetch_add(1, std::memory_order_relaxed);
  util::WallTimer timer;
  Backoff backoff;
  while (!try_push(item)) {
    if (closed()) {
      blocked_ns_.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
      return PushResult::kClosed;
    }
    backoff.wait();
  }
  wake_consumer();
  blocked_ns_.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (item.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  note_depth();
  return item.degraded ? PushResult::kDegraded : PushResult::kOk;
}

void IngestQueue::push_admin(AdminOp* op) {
  IngestItem item;
  item.admin = op;
  Backoff backoff;
  while (!closed()) {
    if (try_push(item)) {
      wake_consumer();
      return;
    }
    backoff.wait();
  }
}

bool IngestQueue::pop_wait(IngestItem& out) {
  for (;;) {
    Backoff backoff;
    while (!backoff.polled_out()) {
      if (try_pop(out)) return true;
      // The acquire-load of closed_ synchronizes with close()'s store, so
      // any push sequenced before close() is visible to the final drain
      // probe below.
      if (closed()) return try_pop(out);
      backoff.wait();
    }
    park();
  }
}

engine::IngestStats IngestQueue::stats() const {
  engine::IngestStats s;
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.blocked_pushes = blocked_pushes_.load(std::memory_order_relaxed);
  s.blocked_ns = blocked_ns_.load(std::memory_order_relaxed);
  s.high_water = high_water_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace paracosm::service
