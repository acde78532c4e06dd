#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "util/checksum.hpp"

namespace paracosm::service {

// ---------------------------------------------------------------- Watchdog

namespace {

[[nodiscard]] std::int64_t steady_ns(util::Clock::time_point tp) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

void nap(std::int64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

[[nodiscard]] std::uint64_t sum(const std::vector<std::uint64_t>& v) noexcept {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

}  // namespace

Watchdog::Watchdog() : thread_([this] { run(); }) {}

Watchdog::~Watchdog() {
  stop_.store(true, std::memory_order_release);
  thread_.join();  // the poller re-checks stop_ at least every kMaxPollNs
}

void Watchdog::arm(util::CancelToken* token, std::uint64_t epoch,
                   util::Clock::time_point deadline) {
  // Publish order matters (see the class comment): the epoch store is the
  // release gate, so a poller that reads this epoch sees this (or a later,
  // farther-out) deadline — never an older one.
  token_.store(token, std::memory_order_relaxed);
  deadline_ns_.store(steady_ns(deadline), std::memory_order_relaxed);
  epoch_.store(epoch, std::memory_order_release);
}

void Watchdog::disarm(std::uint64_t epoch) {
  // A single relaxed store: if the poller still acts on the old epoch it
  // cancels a scope that already finished — a no-op under epoch semantics.
  if (epoch_.load(std::memory_order_relaxed) == epoch)
    epoch_.store(0, std::memory_order_relaxed);
}

void Watchdog::run() {
  PARACOSM_TRACE_THREAD_NAME("watchdog");
  std::uint64_t last_fired_epoch = ~std::uint64_t{0};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    // Epoch first (acquire) — the ordering anchor for the torn-read argument.
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (epoch == 0) {  // disarmed
      nap(kMaxPollNs);
      continue;
    }
    const std::int64_t deadline_ns = deadline_ns_.load(std::memory_order_relaxed);
    const std::int64_t now = steady_ns(util::Clock::now());
    if (now < deadline_ns) {
      // Quarter-remaining naps: a far deadline is sampled rarely (one wake
      // per kMaxPollNs), a near one at kMinPollNs precision.
      nap(std::clamp((deadline_ns - now) / 4, kMinPollNs, kMaxPollNs));
      continue;
    }
    // Overdue. Fire once per epoch; the consumer will disarm or re-arm.
    if (epoch != last_fired_epoch) {
      token_.load(std::memory_order_relaxed)->cancel(epoch);
      PARACOSM_TRACE_INSTANT(obs::EventKind::kWatchdogFire, epoch);
      cancels_.fetch_add(1, std::memory_order_relaxed);
      last_fired_epoch = epoch;
    }
    nap(kMinPollNs);
  }
}

// ------------------------------------------------------------ StreamService

/// One admin-plane request, living on the caller's stack while it waits.
struct AdminOp {
  std::function<void()> fn;
  bool done = false;  ///< guarded by admin_m_
  std::exception_ptr error;
};

StreamService::StreamService(engine::MultiQueryEngine& engine, ServiceOptions opts,
                             FaultHooks hooks)
    : StreamService(engine, nullptr, std::move(opts), std::move(hooks)) {}

StreamService::StreamService(engine::ParaCosm& pc, ServiceOptions opts,
                             FaultHooks hooks)
    : StreamService(pc.engine(), &pc.accumulator(), std::move(opts),
                    std::move(hooks)) {}

StreamService::StreamService(engine::MultiQueryEngine& engine,
                             engine::MultiStreamResult* into, ServiceOptions opts,
                             FaultHooks hooks)
    : engine_(engine),
      into_(into != nullptr ? *into : own_),
      opts_(std::move(opts)),
      hooks_(std::move(hooks)),
      queue_(opts_.queue_capacity, opts_.policy),
      budget_ns_(opts_.budget_us * 1000) {
  if (!opts_.wal_path.empty()) {
    // A resumed log keeps the fingerprint its header already carries.
    wal_.emplace(opts_.wal_path, /*truncate=*/!opts_.wal_resume,
                 opts_.wal_resume ? opts_.wal_next_seq : 0,
                 opts_.wal_resume ? 0 : graph_fingerprint(engine_.graph()));
    seq_ = wal_->next_seq();
  }
  if (budget_ns_ > 0) watchdog_.emplace();
  // The report counts this service's updates only.
  into_.positive.clear();
  into_.negative.clear();
  into_.degraded.clear();
  into_.mq = {};
  // The service owns delivery: observers earlier installed on the engine go
  // quiet, and set_match_callback installs the service's own.
  for (std::size_t h = 0; h < engine_.num_slots(); ++h) observe(h);
  consumer_ = std::thread([this] { consumer_loop(); });
  // Report wall time from "ready to serve": thread spawns above are one-time
  // setup, not serving cost (they would otherwise dominate short benches).
  wall_.reset();
}

StreamService::~StreamService() {
  queue_.close();
  if (consumer_.joinable()) consumer_.join();
}

PushResult StreamService::submit(const graph::GraphUpdate& upd) {
  const PushResult r = queue_.push(upd);
  if (r == PushResult::kShed) {
    std::lock_guard<std::mutex> lk(defer_m_);
    defer_log_.push_back(upd);
    deferred_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

void StreamService::observe(const std::size_t handle) {
  // Only a caller's observer makes the engine build mappings: count-only
  // serving leaves every handle without one. `deliver_` (consumer-thread
  // only) gates it off for updates degraded to count-only.
  engine::MultiQueryEngine::MatchCallback cb;
  if (on_match_)
    cb = [this, handle](std::span<const csm::Assignment> m) {
      if (deliver_) on_match_(handle, m);
    };
  engine_.set_match_callback(handle, std::move(cb));
}

void StreamService::set_match_callback(MatchCallback cb) {
  on_match_ = std::move(cb);
  for (std::size_t h = 0; h < engine_.num_slots(); ++h) observe(h);
}

void StreamService::run_on_consumer(std::function<void()> fn) {
  AdminOp op;
  op.fn = std::move(fn);
  // A closed ring drops the op. Only finish() and a failing consumer close
  // it, and either way the consumer exits, so the wait below ends.
  queue_.push_admin(&op);
  std::unique_lock<std::mutex> lk(admin_m_);
  admin_cv_.wait(lk, [&] { return op.done || consumer_exited_; });
  if (!op.done) {
    // finish() may not race admin ops, so an op the consumer never reached
    // came after finish() or after a failure, whose error_ was written
    // before the consumer took admin_m_.
    if (!error_.empty())
      throw std::runtime_error("StreamService: consumer failed: " + error_);
    throw std::logic_error("StreamService: admin op after finish()");
  }
  if (op.error) std::rethrow_exception(op.error);
}

std::size_t StreamService::add_query(std::string_view algorithm,
                                     graph::QueryGraph query,
                                     engine::QueryOptions qopts) {
  std::size_t handle = 0;
  run_on_consumer([&] {
    handle = engine_.add_query(algorithm, std::move(query), qopts);
    observe(handle);
  });
  return handle;
}

bool StreamService::remove_query(const std::size_t handle) {
  bool removed = false;
  run_on_consumer([&] { removed = engine_.remove_query(handle); });
  return removed;
}

void StreamService::drain() {
  run_on_consumer([] {});
}

void StreamService::run_admin(AdminOp& op) {
  // Every admin op is a barrier: the ring ahead of it has been processed,
  // and so is the defer log, so under kShed no update submitted before the
  // op is applied after it.
  drain_deferred();
  try {
    op.fn();
  } catch (...) {
    op.error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(admin_m_);
    op.done = true;
  }
  admin_cv_.notify_all();
}

bool StreamService::pop_deferred_run() {
  std::lock_guard<std::mutex> lk(defer_m_);
  while (run_.size() < kMaxRun && !defer_log_.empty()) {
    run_.push_back({defer_log_.front(), false, nullptr});
    defer_log_.pop_front();
    deferred_.fetch_sub(1, std::memory_order_relaxed);
  }
  return !run_.empty();
}

void StreamService::drain_deferred() {
  while (pop_deferred_run()) process_run(/*deferred=*/true);
}

void StreamService::retry_deferred() {
  // A stale zero only postpones the replay: admin ops and shutdown drain the
  // log under the lock.
  if (deferred_.load(std::memory_order_relaxed) == 0) return;
  if (defer_countdown_ > 0) {
    --defer_countdown_;
    return;
  }
  // Only replay once the ring has visibly drained below half capacity —
  // otherwise the replay itself would keep the overload alive. While the
  // pressure persists, probe with exponential backoff.
  if (queue_.approx_size() * 2 >= queue_.capacity()) {
    defer_backoff_ = std::min<std::uint64_t>(defer_backoff_ * 2, 64);
    defer_countdown_ = defer_backoff_;
    return;
  }
  defer_backoff_ = 1;
  if (pop_deferred_run()) process_run(/*deferred=*/true);
}

void StreamService::consumer_loop() {
  PARACOSM_TRACE_THREAD_NAME("service");
  try {
    IngestItem item;
    while (queue_.pop_wait(item)) {
      // A run: this item and whatever else is queued, up to kMaxRun updates.
      // It stops before an admin op, so WAL order stays apply order.
      AdminOp* admin = item.admin;
      while (admin == nullptr) {
        if (hooks_.slow_consumer) hooks_.slow_consumer();
        run_.push_back(item);
        if (run_.size() == kMaxRun || !queue_.try_pop(item)) break;
        admin = item.admin;
      }
      if (!run_.empty()) process_run(/*deferred=*/false);
      if (admin != nullptr) {
        run_admin(*admin);
        continue;
      }
      retry_deferred();
    }
    // Shutdown drain: shed updates are delayed, never dropped.
    drain_deferred();
  } catch (const std::exception& e) {
    error_ = e.what();
    queue_.close();  // stop admitting; producers see kClosed
  }
  {
    std::lock_guard<std::mutex> lk(admin_m_);
    consumer_exited_ = true;
  }
  admin_cv_.notify_all();
}

void StreamService::write_run() {
  // Durability point: every record of the run is on disk before the engine
  // sees any of its updates. A crash after this (after_wal_append, or dying
  // anywhere in the run) is exactly what recover_state's redo replay covers.
  const std::uint64_t n = run_.size();
  run_updates_.clear();
  for (const IngestItem& it : run_) run_updates_.push_back(it.upd);
  {
    PARACOSM_TRACE_SPAN(append_span, obs::EventKind::kWalAppend, seq_, n);
    (void)wal_->append(run_updates_);
  }
  {
    PARACOSM_TRACE_SPAN(fsync_span, obs::EventKind::kWalFsync);
    wal_->flush();
  }
  stats_.wal_records += n;
  ++stats_.wal_flushes;
  stats_.wal_retries = wal_->retries();
}

void StreamService::process_run(bool deferred) {
  // The run's dequeue is its first update's start; each later update starts
  // where the one before it completed. So the first update carries the
  // run's WAL write and fdatasync, no update's budget starts before the
  // point where it would have started alone, and the run's latency samples
  // sum to the consumer's time on the run.
  util::Clock::time_point start = util::Clock::now();
  for (std::size_t i = 0; i < run_.size(); ++i) {
    const graph::GraphUpdate& upd = run_[i].upd;
    // seq_ is exactly the sequence this update has: the constructor seeds
    // it from the WAL, and a run advances both by its length.
    const std::uint64_t seq = seq_;
    PARACOSM_TRACE_SPAN(service_span, obs::EventKind::kServiceUpdate, seq,
                        static_cast<std::uint64_t>(upd.op));
    if (wal_) {
      if (i == 0) write_run();
      if (hooks_.after_wal_append) hooks_.after_wal_append(seq);
    }
    seq_ = seq + 1;

    util::CancelView view{};
    bool armed_watchdog = false;
    std::uint64_t epoch = 0;
    const bool forced = hooks_.force_timeout && hooks_.force_timeout(seq);
    if (forced || budget_ns_ > 0) {
      // The consumer is the token's only armer, so epochs come from a plain
      // counter instead of CancelToken::arm()'s atomic RMW — monotonicity is
      // all cancel()/is_cancelled() need, and this runs once per update.
      epoch = ++arm_epoch_;
      view = util::CancelView{&token_, epoch};
      if (forced) {
        // Deterministic over-budget outcome: the fresh epoch is cancelled up
        // front, so the search aborts at its first cancellation check.
        token_.cancel(epoch);
      } else {
        // Deadline base = the update's start, shared with the latency
        // accounting: the budget covers the update end to end (its share of
        // the WAL flush, then the search), which is what a latency SLO
        // means anyway.
        watchdog_->arm(&token_, epoch,
                       start + std::chrono::nanoseconds(budget_ns_));
        armed_watchdog = true;
      }
    }

    deliver_ = !run_[i].degraded;
    const csm::UpdateOutcome out = engine_.process(upd, into_, {}, view);
    deliver_ = true;
    if (armed_watchdog) watchdog_->disarm(epoch);

    ++stats_.processed;
    if (deferred) ++stats_.deferred_retries;
    if (out.cancelled) ++stats_.degraded_searches;
    if (!out.applied) ++stats_.noop_skipped;
    if (opts_.record_applied_order) applied_order_.push_back(upd);

    maybe_snapshot();
    maybe_flush_metrics();

    if (on_done_)
      on_done_(UpdateDone{seq, out.applied, out.cancelled || out.timed_out,
                          out.positive, out.negative});
    const util::Clock::time_point done = util::Clock::now();
    latency_hist_.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(done - start)
            .count());
    start = done;
  }
  run_.clear();
}

void StreamService::maybe_snapshot() {
  if (opts_.snapshot_path.empty() || opts_.snapshot_every == 0) return;
  if (++since_snapshot_ < opts_.snapshot_every) return;
  since_snapshot_ = 0;
  write_snapshot(opts_.snapshot_path, engine_.graph(), snapshot_meta());
  ++stats_.snapshots;
}

SnapshotMeta StreamService::snapshot_meta() const {
  // One registration writes its own name and checksum; several write every
  // name in handle order and fold their checksums (wal.hpp).
  SnapshotMeta meta;
  meta.seq = seq_;
  bool first = true;
  for (std::size_t h = 0; h < engine_.num_slots(); ++h) {
    const csm::CsmAlgorithm* alg = engine_.algorithm(h);
    if (alg == nullptr) continue;
    const std::uint64_t ads = alg->ads_checksum();
    if (first) {
      meta.ads_checksum = ads;
    } else {
      meta.ads_checksum = util::fnv1a_word(
          util::fnv1a_word(meta.ads_checksum, static_cast<std::uint32_t>(ads)),
          static_cast<std::uint32_t>(ads >> 32));
      meta.algorithm += ',';
    }
    meta.algorithm += alg->name();
    first = false;
  }
  return meta;
}

void StreamService::maybe_flush_metrics() {
  if (opts_.metrics_path.empty() || opts_.metrics_every == 0) return;
  if (++since_metrics_ < opts_.metrics_every) return;
  since_metrics_ = 0;
  flush_metrics();
}

void StreamService::flush_metrics() {
  PARACOSM_TRACE_SPAN(flush_span, obs::EventKind::kMetricsFlush,
                      stats_.processed);
  obs::MetricsSnapshot snap;
  snap.add_counter("service.processed",
                   static_cast<std::int64_t>(stats_.processed));
  snap.add_counter("service.degraded_searches",
                   static_cast<std::int64_t>(stats_.degraded_searches));
  snap.add_counter("service.deferred_retries",
                   static_cast<std::int64_t>(stats_.deferred_retries));
  snap.add_counter("service.noop_skipped",
                   static_cast<std::int64_t>(stats_.noop_skipped));
  snap.add_counter("service.wal_records",
                   static_cast<std::int64_t>(stats_.wal_records));
  snap.add_counter("service.wal_flushes",
                   static_cast<std::int64_t>(stats_.wal_flushes));
  snap.add_counter("service.wal_retries",
                   static_cast<std::int64_t>(stats_.wal_retries));
  snap.add_counter("service.snapshots",
                   static_cast<std::int64_t>(stats_.snapshots));
  snap.add_counter("service.watchdog_cancels",
                   static_cast<std::int64_t>(
                       watchdog_ ? watchdog_->cancels() : 0));
  snap.add_counter("service.positive",
                   static_cast<std::int64_t>(sum(into_.positive)));
  snap.add_counter("service.negative",
                   static_cast<std::int64_t>(sum(into_.negative)));
  snap.add_counter("ingest.parks",
                   static_cast<std::int64_t>(queue_.stats().parks));
  snap.add_histogram("service.latency_ns", latency_hist_);
  snap.write(opts_.metrics_path);
  ++stats_.metrics_flushes;
}

ServiceReport StreamService::finish() {
  queue_.close();
  if (consumer_.joinable()) consumer_.join();

  ServiceReport r;
  if (!finished_) {
    finished_ = true;
    stats_.ingest = queue_.stats();
    if (watchdog_) stats_.watchdog_cancels = watchdog_->cancels();
    if (wal_) stats_.wal_retries = wal_->retries();
    // Graceful-shutdown snapshot: the drain is complete and the consumer has
    // joined, so this captures the true final state without racing anything.
    if (opts_.snapshot_on_finish && !opts_.snapshot_path.empty() &&
        error_.empty()) {
      write_snapshot(opts_.snapshot_path, engine_.graph(), snapshot_meta());
      ++stats_.snapshots;
    }
    // Final snapshot (even when the stream was shorter than metrics_every),
    // so a metrics consumer always sees the end-of-run totals. The consumer
    // thread has joined, so writing from here cannot race a periodic flush.
    if (!opts_.metrics_path.empty()) flush_metrics();
    r.stats = stats_;
    // One entry per slot, including those added after the last update.
    const std::size_t slots = engine_.num_slots();
    r.handle_positive = into_.positive;
    r.handle_negative = into_.negative;
    r.handle_degraded = into_.degraded;
    r.handle_positive.resize(slots, 0);
    r.handle_negative.resize(slots, 0);
    r.handle_degraded.resize(slots, 0);
    r.positive = sum(r.handle_positive);
    r.negative = sum(r.handle_negative);
    r.mq = into_.mq;
    r.wall_ns = wall_.elapsed_ns();
    r.latency = latency_hist_;
    r.applied_order = std::move(applied_order_);
    r.error = error_;
  }
  return r;
}

}  // namespace paracosm::service
