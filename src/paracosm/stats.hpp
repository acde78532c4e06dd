// Execution statistics for the two executors.
//
// This container is also where the single-core substitution of DESIGN.md §2
// lives: every worker accounts its CPU busy time via CLOCK_THREAD_CPUTIME_ID,
// and `simulated makespan = serial CPU + max worker CPU` projects what the
// wall clock would be on an unloaded multicore. On real multicore hardware
// the same numbers reproduce wall-clock behaviour, so nothing is lost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace paracosm::engine {

struct WorkerStats {
  std::int64_t busy_ns = 0;     ///< CPU time spent expanding tasks
  std::uint64_t tasks = 0;      ///< tasks popped from CQ
  std::uint64_t nodes = 0;      ///< search-tree nodes expanded
  std::uint64_t matches = 0;

  // Scheduler counters (the low-contention runtime, DESIGN.md §5).
  std::uint64_t steals_attempted = 0;  ///< steal_top calls on other deques
  std::uint64_t steals_succeeded = 0;  ///< CAS-claimed tasks
  std::uint64_t offloads = 0;          ///< tasks re-split onto the queue
  std::uint64_t parks = 0;             ///< spin budget exhausted -> parked
  std::uint64_t shard_updates = 0;     ///< safe updates applied by this worker
                                       ///< in the sharded batch executor

  void merge(const WorkerStats& other) noexcept {
    busy_ns += other.busy_ns;
    tasks += other.tasks;
    nodes += other.nodes;
    matches += other.matches;
    steals_attempted += other.steals_attempted;
    steals_succeeded += other.steals_succeeded;
    offloads += other.offloads;
    parks += other.parks;
    shard_updates += other.shard_updates;
  }
};

struct ParallelStats {
  std::vector<WorkerStats> workers;
  std::int64_t serial_ns = 0;    ///< CPU time of sequential sections
  std::int64_t dispatch_ns = 0;  ///< pool wake + join wall time (not search);
                                 ///< kept out of busy_ns so pool overhead is
                                 ///< visible separately (latency_profile)

  void ensure_size(std::size_t n) {
    if (workers.size() < n) workers.resize(n);
  }

  void merge(const ParallelStats& other) {
    ensure_size(other.workers.size());
    for (std::size_t i = 0; i < other.workers.size(); ++i)
      workers[i].merge(other.workers[i]);
    serial_ns += other.serial_ns;
    dispatch_ns += other.dispatch_ns;
  }

  [[nodiscard]] std::uint64_t total_steals_attempted() const noexcept {
    std::uint64_t s = 0;
    for (const WorkerStats& w : workers) s += w.steals_attempted;
    return s;
  }
  [[nodiscard]] std::uint64_t total_steals_succeeded() const noexcept {
    std::uint64_t s = 0;
    for (const WorkerStats& w : workers) s += w.steals_succeeded;
    return s;
  }
  [[nodiscard]] std::uint64_t total_offloads() const noexcept {
    std::uint64_t s = 0;
    for (const WorkerStats& w : workers) s += w.offloads;
    return s;
  }
  [[nodiscard]] std::uint64_t total_parks() const noexcept {
    std::uint64_t s = 0;
    for (const WorkerStats& w : workers) s += w.parks;
    return s;
  }
  [[nodiscard]] std::uint64_t total_shard_updates() const noexcept {
    std::uint64_t s = 0;
    for (const WorkerStats& w : workers) s += w.shard_updates;
    return s;
  }

  [[nodiscard]] std::int64_t max_worker_ns() const noexcept {
    std::int64_t best = 0;
    for (const WorkerStats& w : workers) best = std::max(best, w.busy_ns);
    return best;
  }
  [[nodiscard]] std::int64_t total_worker_ns() const noexcept {
    std::int64_t total = 0;
    for (const WorkerStats& w : workers) total += w.busy_ns;
    return total;
  }
  /// Projected multicore wall time (see header comment).
  [[nodiscard]] std::int64_t simulated_makespan_ns() const noexcept {
    return serial_ns + max_worker_ns();
  }
  /// Work that would run on one thread.
  [[nodiscard]] std::int64_t sequential_equivalent_ns() const noexcept {
    return serial_ns + total_worker_ns();
  }
};

/// Ingest-side accounting of the bounded ring between the stream reader and
/// the executors (src/service/ingest.hpp). Exported here — next to the
/// executor stats — so bench_baseline and paracosm_serve report one unified
/// stats vocabulary (ISSUE 4).
struct IngestStats {
  std::uint64_t enqueued = 0;        ///< updates admitted into the ring
  std::uint64_t shed = 0;            ///< overload: pushed to the defer log
  std::uint64_t degraded = 0;        ///< overload: demoted to count-only
  std::uint64_t blocked_pushes = 0;  ///< pushes that had to back off (block policy)
  std::int64_t blocked_ns = 0;       ///< wall time producers spent backing off
  std::uint64_t high_water = 0;      ///< max queue depth observed
  std::uint64_t parks = 0;           ///< times the idle consumer slept on its futex

  void merge(const IngestStats& other) noexcept {
    enqueued += other.enqueued;
    shed += other.shed;
    degraded += other.degraded;
    blocked_pushes += other.blocked_pushes;
    blocked_ns += other.blocked_ns;
    high_water = std::max(high_water, other.high_water);
    parks += other.parks;
  }
};

/// End-to-end service-layer counters (src/service/service.hpp): one consumer
/// run's admission, degradation, durability and recovery story in numbers.
struct ServiceStats {
  IngestStats ingest;
  std::uint64_t processed = 0;          ///< updates fully processed
  std::uint64_t degraded_searches = 0;  ///< searches cut short by the watchdog
  std::uint64_t deferred_retries = 0;   ///< shed updates replayed from the defer log
  std::uint64_t replayed_updates = 0;   ///< WAL records replayed during recovery
  std::uint64_t noop_skipped = 0;       ///< rejected mutations (skip + count)
  std::uint64_t snapshots = 0;          ///< snapshots written
  std::uint64_t wal_records = 0;        ///< WAL records appended
  std::uint64_t wal_flushes = 0;        ///< WAL fdatasyncs, one per run
  std::uint64_t wal_retries = 0;        ///< transient WAL write/sync retries
  std::uint64_t watchdog_cancels = 0;   ///< deadlines enforced by the watchdog
  std::uint64_t metrics_flushes = 0;    ///< periodic metrics snapshots written

  void merge(const ServiceStats& other) noexcept {
    ingest.merge(other.ingest);
    processed += other.processed;
    degraded_searches += other.degraded_searches;
    deferred_retries += other.deferred_retries;
    replayed_updates += other.replayed_updates;
    noop_skipped += other.noop_skipped;
    snapshots += other.snapshots;
    wal_records += other.wal_records;
    wal_flushes += other.wal_flushes;
    wal_retries += other.wal_retries;
    watchdog_cancels += other.watchdog_cancels;
    metrics_flushes += other.metrics_flushes;
  }
};

/// Shared multi-query evaluation counters (ISSUE 6): how many per-query
/// verdicts and searches the index / grouping / sharing tiers resolved
/// without per-query dispatch. `verdicts_by_index` + `verdicts_grouped`
/// account every (query, update) pair an independent loop would have
/// classified individually.
struct MultiQueryStats {
  std::uint64_t updates_classified = 0;  ///< shared classification passes
  std::uint64_t index_probes = 0;        ///< query-index lookups
  std::uint64_t index_empty = 0;         ///< probes with no candidate class
  std::uint64_t verdicts_by_index = 0;   ///< (query, update) safe-by-construction
  std::uint64_t verdicts_grouped = 0;    ///< (query, update) settled via a class pass
  std::uint64_t group_checks = 0;        ///< shared degree-stage evaluations
  std::uint64_t group_hits = 0;          ///< degree results reused across classes
  std::uint64_t ads_checks = 0;          ///< per-class stage-3 dispatches
  std::uint64_t searches_run = 0;        ///< per-class ΔM searches executed
  std::uint64_t searches_shared = 0;     ///< member fan-outs served by those
  std::uint64_t searches_skipped = 0;    ///< searches skipped (anchor reject)
  std::uint64_t anchors_checked = 0;     ///< SWAR anchor evaluations

  void merge(const MultiQueryStats& other) noexcept {
    updates_classified += other.updates_classified;
    index_probes += other.index_probes;
    index_empty += other.index_empty;
    verdicts_by_index += other.verdicts_by_index;
    verdicts_grouped += other.verdicts_grouped;
    group_checks += other.group_checks;
    group_hits += other.group_hits;
    ads_checks += other.ads_checks;
    searches_run += other.searches_run;
    searches_shared += other.searches_shared;
    searches_skipped += other.searches_skipped;
    anchors_checked += other.anchors_checked;
  }
};

/// Counters of the batch executor's classify pass over one stream: every
/// classified lane, including those of deferred batch tails (ClassifierStats
/// counts only committed verdicts). Conservation contract (asserted by
/// test_obs_integration): `lanes` equals the sum of the four verdict
/// counters, and `batches` == StreamCounters::batches (inter-parallel mode).
struct BatchBackendStats {
  std::uint64_t batches = 0;  ///< batches classified
  std::uint64_t lanes = 0;    ///< updates (lanes) classified

  // Verdicts produced (same taxonomy as ClassifierStats).
  std::uint64_t safe_label = 0;
  std::uint64_t safe_degree = 0;
  std::uint64_t safe_ads = 0;
  std::uint64_t unsafe_lanes = 0;

  [[nodiscard]] std::uint64_t safe() const noexcept {
    return safe_label + safe_degree + safe_ads;
  }
};

/// Per-stage tallies of the update type classifier (Figure 12 / Table 4).
struct ClassifierStats {
  std::uint64_t total = 0;
  std::uint64_t safe_label = 0;   ///< filtered by stage 1 (label)
  std::uint64_t safe_degree = 0;  ///< filtered by stage 2 (degree)
  std::uint64_t safe_ads = 0;     ///< filtered by stage 3 (candidate/ADS)
  std::uint64_t unsafe_updates = 0;

  [[nodiscard]] std::uint64_t safe() const noexcept {
    return safe_label + safe_degree + safe_ads;
  }
  [[nodiscard]] double unsafe_percent() const noexcept {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(unsafe_updates) /
                            static_cast<double>(total);
  }

  void merge(const ClassifierStats& other) noexcept {
    total += other.total;
    safe_label += other.safe_label;
    safe_degree += other.safe_degree;
    safe_ads += other.safe_ads;
    unsafe_updates += other.unsafe_updates;
  }
};

/// Counters of one pass of the batch pipeline (MultiQueryEngine::
/// process_stream, DESIGN.md §4) over a stream. The single-query
/// (StreamResult) and multi-query (MultiStreamResult) results both derive
/// from it, so each counter has one definition.
struct StreamCounters {
  std::uint64_t nodes = 0;  ///< search-tree nodes expanded
  std::uint64_t updates_processed = 0;
  std::uint64_t noop_skipped = 0;  ///< updates that left the graph unchanged
  bool timed_out = false;
  bool cancelled = false;  ///< some search was cut short by a CancelToken

  ClassifierStats classifier;  ///< phase-1 verdicts of committed updates
  std::uint64_t batches = 0;
  std::uint64_t safe_applied = 0;
  std::uint64_t unsafe_sequential = 0;
  std::uint64_t deferred_after_unsafe = 0;
  std::uint64_t deferred_conflicts = 0;  ///< strict mode only

  /// Classify-pass counters for this stream. In inter-parallel mode
  /// backend_cpu.batches == batches.
  BatchBackendStats backend_cpu;
  /// Always zero. Kept only because benchmark/src/workloads.cpp reads its
  /// `lanes`.
  BatchBackendStats backend_wide;

  ParallelStats stats;
  std::int64_t wall_ns = 0;
};

}  // namespace paracosm::engine
