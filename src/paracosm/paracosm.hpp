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
//
// Both run on the framework's one engine: ParaCosm owns a MultiQueryEngine
// whose only registration is the caller's algorithm and query
// (multi_query.hpp, DESIGN.md §9).
#pragma once

#include <functional>
#include <span>

#include "csm/engine.hpp"
#include "paracosm/config.hpp"
#include "paracosm/multi_query.hpp"
#include "paracosm/stats.hpp"

namespace paracosm::engine {

/// Aggregate result of processing an update stream.
struct StreamResult : StreamCounters {
  std::uint64_t positive = 0;  ///< new matches
  std::uint64_t negative = 0;  ///< expired matches

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
                             util::CancelView cancel = {}) {
    return engine_.process(upd, loose_, deadline, cancel);
  }

  /// Process a whole stream with inter-update batching (when enabled).
  /// `deadline` bounds the entire stream (the paper's success-rate metric).
  StreamResult process_stream(std::span<const graph::GraphUpdate> stream,
                              util::Clock::time_point deadline = {},
                              util::CancelView cancel = {});

  [[nodiscard]] const Config& config() const noexcept { return engine_.config(); }
  [[nodiscard]] csm::CsmAlgorithm& algorithm() noexcept { return alg_; }
  [[nodiscard]] graph::DataGraph& graph() noexcept { return engine_.graph(); }

  /// Stats accumulated by process() calls made outside process_stream().
  [[nodiscard]] const ParallelStats& accumulated_stats() const noexcept {
    return loose_.stats;
  }
  void reset_accumulated_stats() { loose_.stats = {}; }

  /// Observe every match found (positive and negative) as a full mapping in
  /// assignment order. Matches are buffered per worker during the parallel
  /// phase and delivered on the calling thread after quiescence, sorted
  /// lexicographically by (qv, dv) sequence — the same order regardless of
  /// executor or thread count (see csm/match.hpp, "delivery contract").
  void set_match_callback(
      std::function<void(std::span<const csm::Assignment>)> callback) {
    engine_.set_match_callback(handle_, std::move(callback));
  }

 private:
  csm::CsmAlgorithm& alg_;
  MultiQueryEngine engine_;
  std::size_t handle_;
  MultiStreamResult loose_;  ///< what process() calls accumulate
};

}  // namespace paracosm::engine
