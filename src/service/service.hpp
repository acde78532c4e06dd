// StreamService: the overload-resilient front door (DESIGN.md §7).
//
// The service serves a query catalogue: every registration of one
// MultiQueryEngine, which a ParaCosm is with one registration. Producers push
// updates into the bounded ingest ring (ingest.hpp); one consumer thread
// drains it in *runs* — an item and whatever else is queued behind it, up to
// kMaxRun updates, stopping before an admin op — and walks the durability +
// deadline pipeline:
//
//   pop run → [slow-consumer fault per item] → WAL append of the whole run
//       → one flush → per update: [crash hook] → arm CancelToken (+ watchdog
//       when a budget is set) → MultiQueryEngine::process → disarm → account
//
// Group commit: every record of a run is on disk before the engine sees any
// of its updates (redo semantics, wal.hpp), and WAL order is apply order. The
// crash hook fires per record after the run's flush, just before that update
// is applied; the crash-recovery tests kill the process there, and recovery
// replays the run's unapplied rest. A per-update search budget is enforced by
// the Watchdog thread cancelling the update's armed epoch; the search stops at
// the next cancellation check, the update is recorded as *degraded* (its ΔM
// counts may be partial) and — crucially — graph/ADS maintenance still
// completed, so state stays consistent and later updates are exact.
//
// Overload behaviour is the ring's policy: kBlock backpressures the producer,
// kShed returns the update to the caller, which submit() parks in a defer
// log — the consumer replays deferred updates, as runs between ring runs,
// once queue depth drops below half capacity (checked with exponential
// backoff while pressure persists) and unconditionally drains the log at
// shutdown: shed updates are delayed, never dropped. kDegrade admits the
// update flagged count-only: per-mapping delivery is suppressed for every
// handle but ΔM counts and all state stay exact.
//
// The admin plane (add_query, remove_query, drain) changes the catalogue
// while the stream is live. An admin op travels through the ring as an
// in-band item, so the per-update path pays nothing for it; the consumer
// first empties the defer log, then applies the op between two updates (a
// run stops before it), and the caller blocks until it has. Catalogue changes are not logged: a
// recovering caller rebuilds the catalogue from its own schedule (DESIGN.md
// §7).
//
// Threading contract: any number of submit() callers; admin ops come from
// one control thread; neither submit() nor an admin op may race finish();
// the match callback must be installed before the first submit or admin op.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "paracosm/multi_query.hpp"
#include "paracosm/paracosm.hpp"
#include "service/fault.hpp"
#include "service/ingest.hpp"
#include "service/wal.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace paracosm::service {

/// Deadline enforcer: one thread, at most one armed scope at a time (the
/// service consumer processes one update at a time). arm() pins (token,
/// epoch, deadline); if disarm() does not arrive first, the watchdog cancels
/// exactly that epoch — a late cancel can never leak into the next update
/// (see util/cancel.hpp).
///
/// arm()/disarm() sit on the per-update hot path — at microsecond update
/// granularity even a futex wake per update is a double-digit-percent tax —
/// so both are plain atomic stores, no lock, no RMW, no notify. The armed
/// scope is published in a fixed order (token, then deadline, then epoch with
/// release; disarm stores epoch 0) and the watchdog polls it with naps sized
/// to a quarter of the time remaining, clamped to [kMinPollNs, kMaxPollNs].
///
/// Why torn reads are safe without a seqlock: epochs are monotonic and a
/// cancel aimed at a stale epoch is a no-op by CancelToken's contract. The
/// poller loads epoch with acquire FIRST — so the deadline it then reads was
/// stored no earlier than that epoch's, i.e. it is that scope's deadline or a
/// later (hence farther-out) one. Every interleaving therefore either cancels
/// the right overdue epoch, cancels a dead old epoch (benign), or waits a
/// little longer — it can never cancel a live scope early.
///
/// A generous never-firing budget costs one wake per kMaxPollNs; a genuinely
/// overdue deadline is cancelled within ~kMinPollNs. The thread never parks —
/// worst-case idle cost is a wake per kMaxPollNs, which also bounds how long
/// the destructor waits for join.
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(util::CancelToken* token, std::uint64_t epoch,
           util::Clock::time_point deadline);
  void disarm(std::uint64_t epoch);

  [[nodiscard]] std::uint64_t cancels() const noexcept {
    return cancels_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int64_t kMinPollNs = 50'000;     ///< deadline precision
  static constexpr std::int64_t kMaxPollNs = 5'000'000;  ///< idle / far-deadline

  void run();

  // Armed scope; epoch_ == 0 means disarmed (CancelToken epochs start at 1).
  std::atomic<util::CancelToken*> token_{nullptr};
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<std::uint64_t> epoch_{0};

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> cancels_{0};
  std::thread thread_;
};

struct ServiceOptions {
  std::size_t queue_capacity = 1024;
  OverloadPolicy policy = OverloadPolicy::kBlock;

  /// Per-update budget in microseconds, measured end-to-end from the
  /// update's start (its run's dequeue for the first update, which carries
  /// the run's WAL flush; the previous update's completion for the rest);
  /// 0 disables the watchdog.
  std::int64_t budget_us = 0;

  /// Empty = durability off. A fresh log's header carries the fingerprint
  /// of the engine's graph at construction (wal.hpp), so recovery onto any
  /// other base graph is refused.
  std::string wal_path;
  bool wal_resume = false;   ///< append (post-recovery) instead of truncating
  std::uint64_t wal_next_seq = 0;  ///< first seq when resuming

  std::string snapshot_path;       ///< empty = snapshots off
  std::uint64_t snapshot_every = 0;  ///< updates between snapshots; 0 = never
  /// Write one final snapshot during finish() (after the drain) even when
  /// snapshot_every never triggered — the graceful-shutdown path.
  bool snapshot_on_finish = false;

  /// Capture the effective processing order (shed updates are replayed late,
  /// out of submission order) — the stream the verification oracle replays.
  bool record_applied_order = false;

  /// Periodic metrics flushing (obs/metrics.hpp): every `metrics_every`
  /// processed updates the consumer writes a flat counter + latency-histogram
  /// snapshot to `metrics_path` (format by extension: .csv or JSON; atomic
  /// tmp+rename). A final snapshot is always written at finish(). Empty path
  /// or 0 disables.
  std::string metrics_path;
  std::uint64_t metrics_every = 0;
};

struct ServiceReport {
  engine::ServiceStats stats;
  std::uint64_t positive = 0;  ///< ΔM+ summed over every handle
  std::uint64_t negative = 0;  ///< ΔM- summed over every handle
  /// Per query handle over the service's lifetime, with MultiStreamResult's
  /// indexing: a removed handle keeps its totals, and a handle that a later
  /// add_query reuses adds to them.
  std::vector<std::uint64_t> handle_positive;
  std::vector<std::uint64_t> handle_negative;
  std::vector<std::uint64_t> handle_degraded;  ///< searches cut by the query's budget
  engine::MultiQueryStats mq;                  ///< sharing-tier counters
  std::int64_t wall_ns = 0;
  /// Per-update end-to-end latency distribution, from the update's start
  /// (see ServiceOptions::budget_us) to its completion: a run's samples sum
  /// to the consumer's time on the run. The log-bucketed histogram keeps
  /// constant memory at any stream length, exact count/mean/max, quantiles
  /// within the documented 1/32 relative-error bound (obs/histogram.hpp).
  obs::Histogram latency;
  std::vector<graph::GraphUpdate> applied_order;  ///< see record_applied_order
  std::string error;  ///< non-empty if the consumer died (e.g. WAL I/O)
};

/// Completion summary of one processed update, delivered on the consumer
/// thread right after the engine returns (before the next update).
struct UpdateDone {
  std::uint64_t seq = 0;   ///< WAL sequence (or the stand-in counter)
  bool applied = false;    ///< the graph mutation took effect
  bool cancelled = false;  ///< search cut short (watchdog / forced timeout)
  std::uint64_t positive = 0;  ///< ΔM+ of this update
  std::uint64_t negative = 0;  ///< ΔM- of this update
};

class StreamService {
 public:
  using MatchCallback =
      std::function<void(std::size_t handle, std::span<const csm::Assignment>)>;

  /// Serve every registration of `engine`; the offline stage of each must be
  /// done (add_query does it). The consumer thread starts immediately.
  StreamService(engine::MultiQueryEngine& engine, ServiceOptions opts,
                FaultHooks hooks = {});
  /// Serve `pc` as the catalogue of one it is; its accumulated_stats() keep
  /// accumulating the served updates.
  StreamService(engine::ParaCosm& pc, ServiceOptions opts, FaultHooks hooks = {});
  ~StreamService();

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Producer side. kShed means the update went to the defer log (it will
  /// still be processed, later); kClosed means finish() already ran.
  PushResult submit(const graph::GraphUpdate& upd);

  /// Close the ring, drain everything (including the defer log), join the
  /// consumer, and return the final report. One-shot.
  [[nodiscard]] ServiceReport finish();

  /// Admin plane. Each op blocks until the consumer has applied it, after
  /// every update submitted before the call; a query added here sees exactly
  /// the updates submitted after add_query returns. The engine's exceptions
  /// (an unknown algorithm, a query outside the algorithm's domain) reach the
  /// caller and leave the service running. After finish() every op throws
  /// std::logic_error; once the consumer has failed, std::runtime_error
  /// carrying the consumer's error (ServiceReport::error).
  std::size_t add_query(std::string_view algorithm, graph::QueryGraph query,
                        engine::QueryOptions qopts = {});
  bool remove_query(std::size_t handle);
  /// Barrier: returns once every update submitted before the call, deferred
  /// ones included, has been processed (an exact boundary under kShed too).
  void drain();

  /// Install the per-mapping observer: every handle's matches, minus the
  /// updates degraded to count-only. Without one the engine delivers no
  /// mappings at all. Call before the first submit() or admin op.
  void set_match_callback(MatchCallback cb);

  /// Install the per-update completion observer (consumer thread). Fired
  /// after every processed update — submitted, deferred-replayed, or drained
  /// at shutdown — so a caller sees exactly one completion per admitted
  /// update. Call before the first submit().
  void set_update_callback(std::function<void(const UpdateDone&)> cb) {
    on_done_ = std::move(cb);
  }

  [[nodiscard]] const IngestQueue& queue() const noexcept { return queue_; }

 private:
  /// `into` null means own_.
  StreamService(engine::MultiQueryEngine& engine, engine::MultiStreamResult* into,
                ServiceOptions opts, FaultHooks hooks);

  /// Most updates one run takes: one WAL write and one fdatasync cover them.
  static constexpr std::size_t kMaxRun = 64;

  void consumer_loop();
  /// Make run_ durable, then apply and deliver its updates one by one.
  void process_run(bool deferred);
  void write_run();
  void retry_deferred();
  void drain_deferred();
  /// Move up to kMaxRun deferred updates into run_; false if there were none.
  [[nodiscard]] bool pop_deferred_run();
  void run_admin(AdminOp& op);
  void run_on_consumer(std::function<void()> fn);
  void observe(std::size_t handle);
  [[nodiscard]] SnapshotMeta snapshot_meta() const;
  void maybe_snapshot();
  void maybe_flush_metrics();
  void flush_metrics();

  engine::MultiQueryEngine& engine_;
  /// Where engine_.process() accumulates: a ParaCosm's accumulator, or own_.
  engine::MultiStreamResult& into_;
  engine::MultiStreamResult own_;
  ServiceOptions opts_;
  FaultHooks hooks_;
  IngestQueue queue_;
  std::optional<WalWriter> wal_;
  std::optional<Watchdog> watchdog_;
  util::CancelToken token_;
  std::uint64_t arm_epoch_ = 0;  ///< consumer-minted epochs (never token_.arm())
  std::int64_t budget_ns_ = 0;

  // The log itself is guarded by defer_m_; its length is mirrored in
  // deferred_ so the consumer's per-update check takes no lock.
  std::mutex defer_m_;
  std::deque<graph::GraphUpdate> defer_log_;
  std::atomic<std::size_t> deferred_{0};
  std::uint64_t defer_backoff_ = 1;   ///< consumer iterations between probes
  std::uint64_t defer_countdown_ = 0;

  // Admin completions: the consumer marks an op done (or exits) under the
  // mutex and notifies; only admin callers wait.
  std::mutex admin_m_;
  std::condition_variable admin_cv_;
  bool consumer_exited_ = false;

  // Consumer-thread state.
  std::vector<IngestItem> run_;              ///< the run being processed
  std::vector<graph::GraphUpdate> run_updates_;  ///< run_'s updates, for the WAL
  std::uint64_t seq_ = 0;  ///< next update's seq (the WAL's, or a stand-in)
  std::uint64_t since_snapshot_ = 0;
  std::uint64_t since_metrics_ = 0;
  bool deliver_ = true;    ///< false while processing a degraded update
  engine::ServiceStats stats_;
  obs::Histogram latency_hist_;
  std::vector<graph::GraphUpdate> applied_order_;
  std::string error_;

  MatchCallback on_match_;
  std::function<void(const UpdateDone&)> on_done_;
  util::WallTimer wall_;
  std::thread consumer_;
  bool finished_ = false;
};

}  // namespace paracosm::service
