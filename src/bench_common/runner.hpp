// Experiment runner: executes one (algorithm, query, stream) combination in
// a given mode and reports the metrics the paper's tables and figures use.
//
// Timing note (DESIGN.md §2): this container has a single core, so parallel
// configurations report both the raw wall clock and the *simulated makespan*
// (serial CPU + max per-worker CPU), which is the projected multicore wall
// time. Speedups in the benches are computed over simulated makespans; on
// real multicore hardware the two coincide.
#pragma once

#include <string>
#include <vector>

#include "bench_common/workload.hpp"
#include "paracosm/paracosm.hpp"

namespace paracosm::bench {

enum class Mode {
  kSequential,  ///< single-threaded baseline (original algorithm)
  kInnerOnly,   ///< inner-update parallelism only
  kInterOnly,   ///< inter-update batching only (search stays sequential)
  kFull,        ///< both levels (ParaCOSM proper)
};

[[nodiscard]] const char* mode_name(Mode mode) noexcept;

struct RunConfig {
  std::string algorithm = "graphflow";
  Mode mode = Mode::kSequential;
  unsigned threads = 32;
  std::uint32_t split_depth = 4;
  unsigned batch_size = 0;  // 0 -> threads
  std::int64_t timeout_ms = 0;  // 0 -> none; whole-stream budget (paper metric)
  engine::Scheduler scheduler = engine::Scheduler::kCentralQueue;
  engine::BatchMode batch_mode = engine::BatchMode::kStrict;

  /// Parallel modes on the single-core container: the run is given
  /// `timeout_ms * wall_factor` of wall clock to *execute* (all threads
  /// share one core), and counts as successful iff the simulated multicore
  /// makespan fits the original `timeout_ms` budget. On real multicore
  /// hardware set wall_factor = 1.
  double wall_factor = 8.0;
};

struct RunResult {
  bool success = true;  ///< finished within the timeout
  double wall_ms = 0;
  double cpu_ms = 0;            ///< total CPU work (serial + all workers)
  double sim_makespan_ms = 0;   ///< projected multicore wall time
  std::uint64_t delta_matches = 0;
  std::uint64_t nodes = 0;
  double ads_ms = 0;     ///< sequential mode: ADS-update share
  double search_ms = 0;  ///< sequential mode: Find_Matches share
  engine::ClassifierStats classifier;
  std::vector<std::int64_t> worker_busy_ns;  ///< per-thread totals (Fig. 10)

  /// The time a single-threaded run would take ~= cpu_ms; for parallel runs
  /// the headline number is the simulated makespan.
  [[nodiscard]] double effective_ms() const noexcept { return sim_makespan_ms; }
};

/// Run one query over the stream. The workload graph is copied, so calls are
/// independent and repeatable.
[[nodiscard]] RunResult run_stream(const Workload& wl, const QueryGraph& q,
                                   const RunConfig& cfg);

/// Average `effective_ms` over the queries that succeeded under `cfg`;
/// also reports the success rate. Convenience for the table benches.
struct AggregateResult {
  double mean_ms = 0;
  double success_rate = 0;  // percent
  std::uint64_t delta_matches = 0;
  engine::ClassifierStats classifier;
};
[[nodiscard]] AggregateResult run_all_queries(const Workload& wl, const RunConfig& cfg);

}  // namespace paracosm::bench
