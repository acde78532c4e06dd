// ParaCOSM facade: wraps any CsmAlgorithm (the user supplies a traversal
// routine and a filtering rule, §4) and manages both levels of parallelism:
//
//   * process()        — one update; the Find_Matches phase runs on the
//                        inner-update executor (Algorithm 2);
//   * process_stream() — a stream of updates; the inter-update batch
//                        executor (Figure 6) classifies updates in parallel,
//                        applies safe ones immediately, routes unsafe ones
//                        through the sequential-ADS + parallel-search path,
//                        and defers everything after the first unsafe update
//                        of a batch.
#pragma once

#include <memory>
#include <span>

#include "csm/engine.hpp"
#include "paracosm/batch_backend.hpp"
#include "paracosm/classifier.hpp"
#include "paracosm/config.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/sync.hpp"

namespace paracosm::engine {

/// Aggregate result of processing an update stream.
struct StreamResult {
  std::uint64_t positive = 0;   ///< new matches
  std::uint64_t negative = 0;   ///< expired matches
  std::uint64_t nodes = 0;      ///< search-tree nodes expanded
  std::uint64_t updates_processed = 0;
  std::uint64_t noop_skipped = 0;  ///< updates that left the graph unchanged
  bool timed_out = false;
  bool cancelled = false;  ///< some search was cut short by a CancelToken

  ClassifierStats classifier;
  std::uint64_t batches = 0;
  std::uint64_t safe_applied = 0;
  std::uint64_t unsafe_sequential = 0;
  std::uint64_t deferred_after_unsafe = 0;
  std::uint64_t deferred_conflicts = 0;  ///< strict mode only

  /// Per-backend classification counters for this stream (DESIGN.md §11).
  /// In inter-parallel mode backend_cpu.batches + backend_wide.batches ==
  /// batches — every batch is classified by exactly one backend.
  BatchBackendStats backend_cpu;
  BatchBackendStats backend_wide;

  ParallelStats stats;
  std::int64_t wall_ns = 0;

  [[nodiscard]] std::uint64_t delta_matches() const noexcept {
    return positive + negative;
  }
};

class ParaCosm {
 public:
  /// Binds the framework to (algorithm, query, graph) and runs the offline
  /// stage. The pool is spun up once and reused across updates.
  ParaCosm(csm::CsmAlgorithm& alg, const graph::QueryGraph& q, graph::DataGraph& g,
           Config config = {});

  /// Process a single update: sequential graph/ADS maintenance plus
  /// parallel search-tree exploration. Always correct regardless of config.
  /// `cancel` (service watchdog, DESIGN.md §7) aborts only the search phase;
  /// graph and ADS maintenance always complete, so state stays consistent.
  csm::UpdateOutcome process(const graph::GraphUpdate& upd,
                             util::Clock::time_point deadline = {},
                             util::CancelView cancel = {});

  /// Process a whole stream with inter-update batching (when enabled).
  /// `deadline` bounds the entire stream (the paper's success-rate metric).
  StreamResult process_stream(std::span<const graph::GraphUpdate> stream,
                              util::Clock::time_point deadline = {},
                              util::CancelView cancel = {});

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] csm::CsmAlgorithm& algorithm() noexcept { return alg_; }
  [[nodiscard]] graph::DataGraph& graph() noexcept { return g_; }

  /// Stats accumulated by process() calls made outside process_stream().
  [[nodiscard]] const ParallelStats& accumulated_stats() const noexcept {
    return loose_stats_;
  }
  void reset_accumulated_stats() { loose_stats_ = {}; }

  /// Observe every match found (positive and negative) as a full mapping in
  /// assignment order. Matches are buffered per worker during the parallel
  /// phase and delivered on the calling thread after quiescence, sorted
  /// lexicographically by (qv, dv) sequence — the same order regardless of
  /// executor or thread count (see csm/match.hpp, "delivery contract").
  void set_match_callback(
      std::function<void(std::span<const csm::Assignment>)> callback) {
    on_match_ = std::move(callback);
  }

 private:
  csm::UpdateOutcome process_into(const graph::GraphUpdate& upd,
                                  util::Clock::time_point deadline,
                                  util::CancelView cancel, ParallelStats& stats);
  csm::UpdateOutcome process_edge(const graph::GraphUpdate& upd,
                                  util::Clock::time_point deadline,
                                  util::CancelView cancel, ParallelStats& stats);
  /// The backend one batch routes through (Config::batch_backend; kAuto
  /// picks per batch size, see BatchBackendKind::kAuto).
  [[nodiscard]] BatchBackend& backend_for(std::size_t batch_lanes) noexcept;

  csm::CsmAlgorithm& alg_;
  const graph::QueryGraph& q_;
  graph::DataGraph& g_;
  Config config_;
  InnerRuntime runtime_;
  UpdateClassifier classifier_;
  util::StripedLocks<64> locks_;
  std::unique_ptr<BatchBackend> backend_cpu_;
  std::unique_ptr<BatchBackend> backend_wide_;
  ParallelStats loose_stats_;
  std::function<void(std::span<const csm::Assignment>)> on_match_;
};

}  // namespace paracosm::engine
