// Per-thread lock-free bounded trace rings (DESIGN.md §8).
//
// Design constraints, in order:
//   1. A disabled build (PARACOSM_TRACE=OFF) must cost *nothing*: the
//      instrumentation macros below compile away entirely.
//   2. An enabled-but-idle build (tracing compiled in, level 0) must cost one
//      relaxed atomic load + predictable branch per instrumentation point.
//   3. Recording must never block or allocate on the hot path: each thread
//      owns a fixed-capacity power-of-two ring of 64-byte events with an
//      overwrite-oldest policy. Overwritten events are accounted exactly
//      (dropped() == pushed() - capacity when the ring wrapped).
//
// Memory model: a ring has exactly one producer (its owning thread). Slots
// are arrays of relaxed atomics, published by a release store of head_; a
// concurrent reader (TraceRegistry::collect from another thread) acquires
// head_ and copies the window. Lapping during the copy is detected per slot
// with a double epoch stamp: the producer writes `reserved = seq` first and
// `seq` last (the words in between are release stores), so a reader that
// checks `seq` before and `reserved` after its acquire word copy — against
// the epoch the slot *should* hold — rejects any slot a producer write
// overlapped, even when a stale head_ read would have hidden the lap. Readers can therefore
// snapshot a live ring without stopping the producer and without torn
// events — at worst they see a slightly shorter suffix. Epoch stamps (`seq`,
// from the producer's own counter) are strictly monotonic per thread, which
// the deterministic concurrency test asserts under TSan.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace paracosm::obs {

/// Fixed 64-byte trace event. `dur_ns < 0` marks an instant; spans carry the
/// wall duration. `ts_ns` is a steady-clock stamp shared by every thread, so
/// cross-lane ordering is meaningful.
struct TraceEvent {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = -1;
  std::uint64_t seq = 0;  ///< per-thread monotonic epoch stamp
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t kind = 0;  ///< EventKind
  std::uint32_t flags = 0;
  std::uint64_t reserved = 0;  ///< in ring slots: write-begin stamp (== seq)
};
static_assert(sizeof(TraceEvent) == 64, "events are fixed 64-byte records");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Steady-clock nanoseconds (the epoch stamp clock of util/timer.hpp).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Global runtime verbosity: 0 = off, 1 = spans + scheduler/service instants,
/// 2 = + per-search-node instants. One relaxed load on the hot path.
inline std::atomic<int> g_trace_level{0};

[[nodiscard]] inline int trace_level() noexcept {
  return g_trace_level.load(std::memory_order_relaxed);
}
inline void set_trace_level(int level) noexcept {
  g_trace_level.store(level, std::memory_order_relaxed);
}

/// Single-producer bounded ring of TraceEvents; overwrite-oldest.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit TraceRing(std::size_t capacity = kDefaultCapacity)
      : cap_(std::bit_ceil(capacity < 8 ? std::size_t{8} : capacity)),
        mask_(cap_ - 1),
        slots_(new Slot[cap_]) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Producer-only. Stamps the event's per-thread epoch and overwrites the
  /// oldest slot when full. Never blocks, never allocates.
  void push(TraceEvent ev) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    ev.seq = seq;
    ev.reserved = seq;  // write-begin stamp; `seq` (stored last) closes it
    Slot& s = slots_[h & mask_];
    const auto words = std::bit_cast<std::array<std::uint64_t, kWords>>(ev);
    // Release stores on every word after the begin stamp: a reader that
    // acquire-loads any of them sees the begin stamp too (TSan models this;
    // fences it does not). On x86 release stores are plain stores.
    s.w[kReservedWord].store(words[kReservedWord], std::memory_order_relaxed);
    for (std::size_t i = 0; i < kWords; ++i)
      if (i != kSeqWord && i != kReservedWord)
        s.w[i].store(words[i], std::memory_order_release);
    s.w[kSeqWord].store(words[kSeqWord], std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Convenience producers.
  void push_span(EventKind kind, std::int64_t start_ns, std::int64_t dur_ns,
                 std::uint64_t a = 0, std::uint64_t b = 0,
                 std::uint64_t c = 0) noexcept {
    TraceEvent ev;
    ev.ts_ns = start_ns;
    ev.dur_ns = dur_ns < 0 ? 0 : dur_ns;
    ev.kind = static_cast<std::uint32_t>(kind);
    ev.a = a;
    ev.b = b;
    ev.c = c;
    push(ev);
  }
  void push_instant(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                    std::uint64_t c = 0) noexcept {
    TraceEvent ev;
    ev.ts_ns = now_ns();
    ev.dur_ns = -1;
    ev.kind = static_cast<std::uint32_t>(kind);
    ev.a = a;
    ev.b = b;
    ev.c = c;
    push(ev);
  }

  /// Total events ever pushed / overwritten before being read. Exact.
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t h = pushed();
    return h > cap_ ? h - cap_ : 0;
  }

  /// Copy the surviving window (oldest first) into `out`. Safe concurrently
  /// with the producer: slots the producer overwrote mid-copy are discarded,
  /// so every returned event is intact and their seqs are consecutive.
  void snapshot(std::vector<TraceEvent>& out) const {
    out.clear();
    const std::uint64_t h1 = head_.load(std::memory_order_acquire);
    const std::uint64_t lo1 = h1 > cap_ ? h1 - cap_ : 0;
    if (h1 == lo1) return;
    std::vector<TraceEvent> tmp;
    tmp.reserve(h1 - lo1);
    std::uint64_t drop_prefix = 0;  // entries before (and incl.) the last lap
    for (std::uint64_t i = lo1; i < h1; ++i) {
      std::array<std::uint64_t, kWords> words;
      const Slot& s = slots_[i & mask_];
      // Per-slot double stamp: the slot is intact iff both epochs equal the
      // epoch this index must hold (i + 1 — seq and head advance together).
      // `seq` (stored last by the producer) is read first; `reserved`
      // (stored first) is read last. The data loads are acquire, pairing
      // with the producer's release stores: observing any word of a newer
      // write makes that write's begin stamp visible to the final load. A
      // producer write overlapping this copy therefore flips at least one
      // stamp, even when the head_ load above returned a stale value —
      // re-reading head_ instead would miss laps whose slot stores became
      // visible before the matching head_ store.
      words[kSeqWord] = s.w[kSeqWord].load(std::memory_order_acquire);
      for (std::size_t w = 0; w < kWords; ++w)
        if (w != kSeqWord && w != kReservedWord)
          words[w] = s.w[w].load(std::memory_order_acquire);
      words[kReservedWord] = s.w[kReservedWord].load(std::memory_order_relaxed);
      tmp.push_back(std::bit_cast<TraceEvent>(words));
      if (words[kSeqWord] != i + 1 || words[kReservedWord] != i + 1)
        drop_prefix = (i - lo1) + 1;
    }
    // The producer overwrites oldest-first, so keeping only the suffix after
    // the last invalid slot yields intact events with consecutive epochs.
    out.assign(tmp.begin() + static_cast<std::ptrdiff_t>(drop_prefix),
               tmp.end());
  }

  /// Reset to empty. Only meaningful while the producer is quiescent (e.g.
  /// tracing level 0 between runs); counters restart from zero.
  void clear() noexcept {
    head_.store(0, std::memory_order_release);
    next_seq_.store(0, std::memory_order_relaxed);
  }

  static constexpr std::size_t kDefaultCapacity = 1 << 14;  ///< 1 MiB/thread

 private:
  static constexpr std::size_t kWords = sizeof(TraceEvent) / sizeof(std::uint64_t);
  static constexpr std::size_t kSeqWord = offsetof(TraceEvent, seq) / sizeof(std::uint64_t);
  static constexpr std::size_t kReservedWord =
      offsetof(TraceEvent, reserved) / sizeof(std::uint64_t);
  struct Slot {
    std::atomic<std::uint64_t> w[kWords] = {};
  };

  const std::size_t cap_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> next_seq_{0};  ///< producer-only RMW
};

/// One collected lane: a thread's surviving events plus its identity.
struct RingSnapshot {
  std::uint32_t tid = 0;  ///< registration-order lane id
  std::string name;       ///< "worker 3", "service", ... (may be empty)
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// Process-wide registry of per-thread rings. A thread registers when it
/// names itself or records its first event, and its ring is allocated at the
/// first recorded event, so a named thread that never traces costs an entry,
/// not a ring. Entries outlive their threads so a trace can be collected
/// after the pool shut down.
class TraceRegistry {
 public:
  static TraceRegistry& instance();

  /// The calling thread's ring (allocated on first use; cached in a
  /// thread_local afterwards, so the steady-state cost is one TLS load).
  TraceRing& ring();

  /// Label the calling thread's lane in exported traces. Stores the name
  /// only: no ring is allocated until the thread records an event.
  static void set_thread_name(const std::string& name);

  /// Capacity used for rings allocated from now on (existing rings keep
  /// theirs): a thread's ring takes the capacity in force at its first
  /// recorded event.
  void set_ring_capacity(std::size_t capacity);

  /// Snapshot every registered lane (safe while producers are live).
  [[nodiscard]] std::vector<RingSnapshot> collect() const;

  /// Drop all recorded events (entries and thread bindings survive). Call
  /// with tracing at level 0 and instrumented threads quiescent.
  void clear();

 private:
  struct Entry {
    std::uint32_t tid;
    std::unique_ptr<TraceRing> ring;  ///< null until the first recorded event
    std::string name;
  };

  /// The calling thread's entry, registered on first use; caller holds m_.
  Entry* entry_locked();

  mutable std::mutex m_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::size_t ring_capacity_ = TraceRing::kDefaultCapacity;
};

/// Record an instant event on the calling thread's ring if the current trace
/// level admits this kind.
inline void trace_instant(EventKind kind, std::uint64_t a = 0,
                          std::uint64_t b = 0, std::uint64_t c = 0) noexcept {
  if (trace_level() < event_level(kind)) return;
  TraceRegistry::instance().ring().push_instant(kind, a, b, c);
}

/// Record a span with an explicit start stamp (for call sites whose args are
/// only known after the work ran, e.g. the classifier verdict).
inline void trace_complete(EventKind kind, std::int64_t start_ns,
                           std::uint64_t a = 0, std::uint64_t b = 0,
                           std::uint64_t c = 0) noexcept {
  TraceRegistry::instance().ring().push_span(kind, start_ns,
                                             now_ns() - start_ns, a, b, c);
}

/// RAII span: stamps the start on construction (if the level admits the
/// kind) and records on destruction.
class SpanScope {
 public:
  explicit SpanScope(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                     std::uint64_t c = 0) noexcept
      : a_(a), b_(b), c_(c) {
    if (trace_level() >= event_level(kind)) {
      kind_ = kind;
      start_ns_ = now_ns();
    }
  }
  ~SpanScope() {
    if (kind_ != EventKind::kNone)
      trace_complete(kind_, start_ns_, a_, b_, c_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  EventKind kind_ = EventKind::kNone;
  std::int64_t start_ns_ = 0;
  std::uint64_t a_, b_, c_;
};

}  // namespace paracosm::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. PARACOSM_TRACE=OFF (no PARACOSM_TRACE_ENABLED
// define) compiles every point away; the obs library itself still builds so
// exporters and tests are always available.
#if defined(PARACOSM_TRACE_ENABLED)
#define PARACOSM_TRACE_SPAN(var, kind, ...) \
  ::paracosm::obs::SpanScope var(kind __VA_OPT__(, ) __VA_ARGS__)
#define PARACOSM_TRACE_INSTANT(kind, ...) \
  ::paracosm::obs::trace_instant(kind __VA_OPT__(, ) __VA_ARGS__)
#define PARACOSM_TRACE_THREAD_NAME(name) \
  ::paracosm::obs::TraceRegistry::set_thread_name(name)
#else
#define PARACOSM_TRACE_SPAN(var, kind, ...) \
  do {                                      \
  } while (0)
#define PARACOSM_TRACE_INSTANT(kind, ...) \
  do {                                    \
  } while (0)
#define PARACOSM_TRACE_THREAD_NAME(name) \
  do {                                   \
  } while (0)
#endif
