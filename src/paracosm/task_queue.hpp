// The concurrent task queue CQ of Algorithm 2, rebuilt as a thin façade over
// per-worker Chase–Lev deques (cl_deque.hpp).
//
// The paper's CQ is a logically-global pool of search-tree tasks with two
// split-predicate signals: the current queue length and whether any worker is
// idle ("HasIdleThreads"). Both survive the rewrite as relaxed atomics; only
// the storage changed — tasks now live in the pushing worker's own deque
// (owner push/pop on the bottom, CAS-steal on the top), so the hot path is
// lock-free and uncontended, and idle workers pull work via stealing instead
// of a global mutex.
//
// Termination: `in_flight_` counts queued plus executing tasks and is raised
// BEFORE a task becomes poppable — a task's children are always pushed before
// the task itself retires, so in_flight only reaches zero once the whole tree
// is explored. Idle protocol: a worker that finds nothing locally sweeps all
// victims, then spins with exponential backoff (so the split predicate sees
// it idle quickly), and finally parks on a condvar; pushes use a seq_cst
// Dekker handshake with the parked count so no wakeup is lost (DESIGN.md §5).
//
// Victim order: the queue sweeps a distance-sorted victim table
// (util::make_victim_table, usually WorkerPool::victim_table()) — SMT
// sibling, then same node, then the remote tier on a cadence (DESIGN.md
// §10). A flat machine is a table with an empty remote tier.
//
// Thread roles:
//   * quiescent phase (seeding / BFS initialization, single thread): `seed`
//     and `try_pop` may be called from any one thread while no worker is
//     inside `pop_or_finish` — the pool dispatch provides the ordering.
//   * parallel phase: `push(wid, ...)` is owner-only, `pop_or_finish(wid)`
//     per worker, `retire()` from the worker that finished the task.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "csm/match.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/cl_deque.hpp"
#include "paracosm/stats.hpp"
#include "util/hw_topo.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace paracosm::engine {

// --- topology-aware stealing constants (DESIGN.md §10) ---------------------

/// Remote probing is a *cadence*, not a default: an idle worker includes the
/// remote tier only every kRemoteProbePeriod-th sweep, probing its own
/// node's victims on every other one. This is what biases the race for a
/// freshly split task toward same-node thieves — sweep order alone cannot,
/// because the inter-sweep spin dominates the sweep itself, so whichever
/// idler's sweep fires first wins regardless of tier order. Fruitless remote
/// passes stretch the cadence exponentially up to kRemoteBackoffMax sweeps;
/// a successful remote steal snaps it back to the base period.
inline constexpr std::uint32_t kRemoteProbePeriod = 64;
inline constexpr std::uint32_t kRemoteBackoffMax = 512;

/// A remote steal migrates up to this many tasks: one to run immediately,
/// the rest into the thief's own deque. Near-first sweeping alone starves
/// the far node — its workers find nothing same-node, pay a cross-node steal
/// for a *single* task, consume it, and are starved again, so every steal
/// they make is remote. Migrating a small batch seeds same-node stealing on
/// the thief's side of the interconnect, which is what actually cuts the
/// remote-steal share.
inline constexpr std::uint32_t kRemoteBatch = 4;

class TaskQueue {
 public:
  /// One worker per `victims` entry. The table (usually WorkerPool::
  /// victim_table()) must cover >= 1 worker and outlive the queue.
  /// `spin_iters`: find-work spin iterations (with periodic yields) before a
  /// worker parks on its condvar. Small by design: parked workers are cheap
  /// and the split predicate treats spinning and parked workers alike.
  explicit TaskQueue(const util::VictimTable& victims, std::uint32_t spin_iters = 256)
      : victims_(victims), spin_iters_(spin_iters), n_(victims.n), w_(new PerWorker[n_]) {
    for (unsigned i = 0; i < n_; ++i) {
      w_[i].rng.reseed(0xc1de9e5ULL * (i + 1));
      // Most steals are the fan-out races at the start of each update. Arm
      // the remote cadence from sweep zero or those races run tier-blind and
      // the bias never materializes.
      w_[i].remote_skip = kBasePeriod;
    }
  }

  ~TaskQueue() { drain_and_free(); }

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return n_; }

  // --- quiescent-phase API (one thread, no worker inside pop_or_finish) ----

  /// Push a root task, round-robin across worker deques so every worker
  /// starts with local work.
  void seed(csm::SearchTask&& task) {
    const unsigned wid = seed_rr_++ % n_;
    push(wid, std::move(task));
  }

  /// Non-blocking pop used by the single-threaded initialization phase.
  /// Takes from the top (FIFO), preserving the BFS order Traverse_Next_Layer
  /// relies on. Does NOT decrement in_flight (pair with retire()).
  [[nodiscard]] std::optional<csm::SearchTask> try_pop() {
    for (unsigned k = 0; k < n_; ++k) {
      const unsigned v = (seed_rr_ + k) % n_;
      if (csm::SearchTask* node = w_[v].deque.steal_top()) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return take(v, node);
      }
    }
    return std::nullopt;
  }

  // --- parallel-phase API --------------------------------------------------

  /// Owner push: raises in_flight before the task becomes stealable.
  void push(unsigned wid, csm::SearchTask&& task) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    PerWorker& me = w_[wid];
    csm::SearchTask* node = me.acquire();
    *node = std::move(task);
    me.deque.push_bottom(node);
    // Dekker handshake with parking workers: the seq_cst publish of pending_
    // and the seq_cst read of parked_ pair with the reverse order in park()
    // — at least one side always observes the other, so a worker cannot park
    // forever while this task sits unclaimed.
    pending_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) wake_one(wid);
  }

  /// Pop the next task: own deque first (LIFO), then steal sweeps, then
  /// spin-then-park. Returns nullopt once every task has retired.
  [[nodiscard]] std::optional<csm::SearchTask> pop_or_finish(unsigned wid) {
    PerWorker& me = w_[wid];
    if (csm::SearchTask* node = me.deque.pop_bottom()) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return take(wid, node);
    }
    // Local deque dry: this worker now counts as idle for the paper's
    // HasIdleThreads() signal until it finds work or the tree is exhausted.
    idle_.fetch_add(1, std::memory_order_relaxed);
    util::SpinBackoff backoff;
    for (;;) {
      // One full topology-ordered victim sweep per attempt.
      if (csm::SearchTask* node = sweep_victims(wid, me)) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        idle_.fetch_sub(1, std::memory_order_relaxed);
        return take(wid, node);
      }
      // A split may have landed in our own deque while we were sweeping.
      if (csm::SearchTask* node = me.deque.pop_bottom()) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        idle_.fetch_sub(1, std::memory_order_relaxed);
        return take(wid, node);
      }
      if (in_flight_.load(std::memory_order_acquire) == 0) {
        idle_.fetch_sub(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      if (backoff.spins() < spin_iters_) {
        backoff.pause();
      } else {
        park(me);
        backoff.reset();
      }
    }
  }

  /// A task has been fully expanded (its offloaded children were pushed
  /// beforehand). Wakes everyone when the tree is exhausted.
  void retire() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_all();
  }

  // --- split-predicate signals (all relaxed reads) -------------------------

  [[nodiscard]] std::uint32_t approx_size() const noexcept {
    const std::int64_t p = pending_.load(std::memory_order_relaxed);
    return p > 0 ? static_cast<std::uint32_t>(p) : 0;
  }
  [[nodiscard]] bool has_idle_workers() const noexcept {
    return idle_.load(std::memory_order_relaxed) > 0;
  }
  [[nodiscard]] std::int64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Depth of one worker's own deque (the stealing split policy's signal).
  [[nodiscard]] std::size_t local_size(unsigned wid) const noexcept {
    return w_[wid].deque.size_approx();
  }

  /// Fold this run's per-worker scheduler counters into `ws` and clear them.
  void export_counters(unsigned wid, WorkerStats& ws) noexcept {
    PerWorker& me = w_[wid];
    ws.steals_attempted += me.steals_attempted;
    ws.steals_succeeded += me.steals_succeeded;
    ws.steals_local += me.steals_local;
    ws.steals_same_node += me.steals_same_node;
    ws.steals_remote += me.steals_remote;
    ws.parks += me.parks;
    me.steals_attempted = me.steals_succeeded = me.parks = 0;
    me.steals_local = me.steals_same_node = me.steals_remote = 0;
  }

 private:
  struct alignas(64) PerWorker {
    ChaseLevDeque<csm::SearchTask*> deque;
    std::vector<csm::SearchTask*> free_nodes;  ///< recycled task nodes
    util::Rng rng{0};
    std::uint64_t steals_attempted = 0;
    std::uint64_t steals_succeeded = 0;
    std::uint64_t steals_local = 0;      ///< by victim distance; sums to
    std::uint64_t steals_same_node = 0;  ///< steals_succeeded (same-node on a
    std::uint64_t steals_remote = 0;     ///< flat machine)
    std::uint32_t remote_backoff = 0;  ///< current back-off length (sweeps)
    std::uint32_t remote_skip = 0;     ///< sweeps left skipping remote tier
    std::uint64_t parks = 0;
    std::atomic<bool> parked{false};  ///< blocked on park_cv (or about to)
    std::mutex park_mutex;
    std::condition_variable park_cv;

    ~PerWorker() {
      for (csm::SearchTask* node : free_nodes) delete node;
    }

    [[nodiscard]] csm::SearchTask* acquire() {
      if (free_nodes.empty()) return new csm::SearchTask;
      csm::SearchTask* node = free_nodes.back();
      free_nodes.pop_back();
      return node;
    }
  };

  /// One full victim sweep for `wid`: probe near victims (SMT sibling, then
  /// same node — the table is distance-sorted) before remote ones, rotating
  /// randomly *within* each tier so concurrent thieves spread over victims;
  /// the remote tier is skipped for an exponentially growing number of
  /// sweeps after fruitless remote probes (reset by any success).
  [[nodiscard]] csm::SearchTask* sweep_victims(unsigned wid, PerWorker& me) {
    const std::span<const util::Victim> row = victims_.of(wid);
    const unsigned near_len = victims_.remote_begin[wid];
    const unsigned remote_len = static_cast<unsigned>(row.size()) - near_len;
    if (near_len > 0) {
      const unsigned start = static_cast<unsigned>(me.rng.bounded(near_len));
      for (unsigned k = 0; k < near_len; ++k) {
        const util::Victim& vic = row[(start + k) % near_len];
        ++me.steals_attempted;
        if (csm::SearchTask* node = w_[vic.wid].deque.steal_top())
          return record_steal(me, wid, vic.wid, node);
      }
    }
    if (remote_len > 0) {
      // Starvation valve: a queued backlog our near tier evidently isn't
      // draining means the work is genuinely elsewhere — migrate now, skip
      // or no skip. Only the scarce-work tails (a pending task or two that
      // near idlers are racing for) stay cadenced; that is where cadence
      // converts cross-node steals into same-node ones instead of delaying
      // anybody.
      const bool surplus =
          pending_.load(std::memory_order_relaxed) > std::int64_t{2};
      if (me.remote_skip > 0 && !surplus) {
        --me.remote_skip;
      } else {
        const unsigned start = static_cast<unsigned>(me.rng.bounded(remote_len));
        for (unsigned k = 0; k < remote_len; ++k) {
          const util::Victim& vic = row[near_len + (start + k) % remote_len];
          ++me.steals_attempted;
          if (csm::SearchTask* node = w_[vic.wid].deque.steal_top()) {
            // Batch the migration (see kRemoteBatch): extras go to our own
            // deque — they stay pending and in flight, only their home
            // changes, so no counter or wakeup bookkeeping moves.
            for (std::uint32_t extra = 1; extra < kRemoteBatch; ++extra) {
              csm::SearchTask* more = w_[vic.wid].deque.steal_top();
              if (more == nullptr) break;
              me.deque.push_bottom(more);
            }
            me.remote_backoff = 0;
            me.remote_skip = kBasePeriod;
            return record_steal(me, wid, vic.wid, node);
          }
        }
        me.remote_backoff =
            std::min(me.remote_backoff == 0 ? kBasePeriod : me.remote_backoff * 2u,
                     kRemoteBackoffMax);
        me.remote_skip = me.remote_backoff;
      }
    }
    return nullptr;
  }

  /// Base remote cadence: sweeps skipped between remote-tier passes.
  static constexpr std::uint32_t kBasePeriod = kRemoteProbePeriod - 1;

  /// Successful steal: count it and price its distance. Remote cadence
  /// state is managed by the sweep itself (a near success deliberately does
  /// NOT re-enable eager remote probing — a worker that can feed itself
  /// same-node has no reason to hammer the interconnect).
  csm::SearchTask* record_steal(PerWorker& me, unsigned wid, unsigned victim,
                                csm::SearchTask* node) {
    ++me.steals_succeeded;
    const util::StealDistance d = victims_.distance(wid, victim);
    switch (d) {
      case util::StealDistance::kLocal: ++me.steals_local; break;
      case util::StealDistance::kSameNode: ++me.steals_same_node; break;
      case util::StealDistance::kRemote: ++me.steals_remote; break;
    }
    PARACOSM_TRACE_INSTANT(obs::EventKind::kSteal, victim, wid,
                           static_cast<std::uint64_t>(d));
    return node;
  }

  /// Move the task out of the node and recycle the node on the taker's own
  /// free list (nodes migrate with steals; lists stay single-owner).
  [[nodiscard]] csm::SearchTask take(unsigned wid, csm::SearchTask* node) {
    csm::SearchTask task = std::move(*node);
    node->assigned.clear();  // keep capacity, drop stale assignments
    w_[wid].free_nodes.push_back(node);
    return task;
  }

  void park(PerWorker& me) {
    ++me.parks;
    std::unique_lock lock(me.park_mutex);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    me.parked.store(true, std::memory_order_seq_cst);
    me.park_cv.wait(lock, [this, &me] {
      return pending_.load(std::memory_order_seq_cst) > 0 ||
             in_flight_.load(std::memory_order_acquire) == 0;
    });
    me.parked.store(false, std::memory_order_relaxed);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Wake one parked worker, nearest the pusher first: scanning the pusher's
  /// distance-sorted victim row hands a fresh split to an SMT sibling or
  /// same-node worker whenever one is parked (waking an arbitrary one made
  /// the steal-distance mix at burst tails follow the worker population, no
  /// matter how the sweep was tiered). Dekker handshake: push publishes
  /// pending_ (seq_cst) then reads the parked flags here; park() sets its
  /// flag then reads pending_ in the wait predicate — one side always
  /// observes the other, and the row covers every other worker, so a needed
  /// wake is never skipped.
  void wake_one(unsigned wid) {
    for (const util::Victim& vic : victims_.of(wid))
      if (try_wake(w_[vic.wid])) return;
  }

  bool try_wake(PerWorker& cand) {
    if (!cand.parked.load(std::memory_order_seq_cst)) return false;
    const std::lock_guard lock(cand.park_mutex);
    cand.park_cv.notify_one();
    return true;
  }

  void wake_all() {
    for (unsigned i = 0; i < n_; ++i) {
      const std::lock_guard lock(w_[i].park_mutex);
      w_[i].park_cv.notify_all();
    }
  }

  /// Destructor-time cleanup: a deadline abort can in principle leave nodes
  /// queued; free whatever the deques still hold.
  void drain_and_free() {
    for (unsigned i = 0; i < n_; ++i)
      while (csm::SearchTask* node = w_[i].deque.steal_top()) delete node;
  }

  const util::VictimTable& victims_;
  std::uint32_t spin_iters_;
  unsigned n_;
  std::unique_ptr<PerWorker[]> w_;
  unsigned seed_rr_ = 0;

  alignas(64) std::atomic<std::int64_t> pending_{0};   ///< queued tasks
  alignas(64) std::atomic<std::int64_t> in_flight_{0};  ///< queued + executing
  alignas(64) std::atomic<std::uint32_t> idle_{0};      ///< hunting or parked
  alignas(64) std::atomic<std::uint32_t> parked_{0};    ///< parked subset
};

}  // namespace paracosm::engine
