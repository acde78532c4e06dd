#include "bench_common/runner.hpp"

#include "csm/engine.hpp"
#include "util/timer.hpp"

namespace paracosm::bench {

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kSequential: return "sequential";
    case Mode::kInnerOnly: return "inner";
    case Mode::kInterOnly: return "inter";
    case Mode::kFull: return "paracosm";
  }
  return "?";
}

namespace {

[[nodiscard]] util::Clock::time_point deadline_for(const RunConfig& cfg,
                                                   double factor = 1.0) {
  if (cfg.timeout_ms <= 0) return {};
  return util::Clock::now() +
         std::chrono::milliseconds(
             static_cast<std::int64_t>(static_cast<double>(cfg.timeout_ms) * factor));
}

[[nodiscard]] RunResult run_sequential(const Workload& wl, const QueryGraph& q,
                                       const RunConfig& cfg) {
  RunResult result;
  auto alg = csm::make_algorithm(cfg.algorithm);
  DataGraph g = wl.graph;
  csm::SequentialEngine engine(*alg, q, g);
  const auto deadline = deadline_for(cfg);

  util::WallTimer wall;
  util::ThreadCpuTimer cpu;
  for (const GraphUpdate& upd : wl.stream) {
    if (deadline != util::Clock::time_point{} && util::Clock::now() >= deadline) {
      result.success = false;
      break;
    }
    const csm::UpdateOutcome out = engine.process(upd, deadline);
    result.delta_matches += out.delta_matches();
    result.nodes += out.nodes;
    if (out.timed_out) {
      result.success = false;
      break;
    }
  }
  result.wall_ms = wall.elapsed_ms();
  result.cpu_ms = cpu.elapsed_ms();
  result.sim_makespan_ms = result.cpu_ms;  // single thread: makespan == work
  result.ads_ms = static_cast<double>(engine.ads_update_ns()) / 1e6;
  result.search_ms = static_cast<double>(engine.find_matches_ns()) / 1e6;
  return result;
}

[[nodiscard]] RunResult run_parallel(const Workload& wl, const QueryGraph& q,
                                     const RunConfig& cfg) {
  RunResult result;
  auto alg = csm::make_algorithm(cfg.algorithm);
  DataGraph g = wl.graph;

  engine::Config pc_cfg;
  pc_cfg.threads = cfg.threads;
  pc_cfg.split_depth = cfg.split_depth;
  pc_cfg.batch_size = cfg.batch_size;
  pc_cfg.scheduler = cfg.scheduler;
  pc_cfg.batch_mode = cfg.batch_mode;
  pc_cfg.inner_parallelism = cfg.mode != Mode::kInterOnly;
  pc_cfg.inter_parallelism = cfg.mode != Mode::kInnerOnly;

  engine::ParaCosm pc(*alg, q, g, pc_cfg);
  const engine::StreamResult sr =
      pc.process_stream(wl.stream, deadline_for(cfg, cfg.wall_factor));

  result.sim_makespan_ms = static_cast<double>(sr.stats.simulated_makespan_ns()) / 1e6;
  // Success = the projected multicore wall time fits the paper's budget (and
  // the oversubscribed single-core execution itself completed).
  result.success = !sr.timed_out &&
                   (cfg.timeout_ms <= 0 ||
                    result.sim_makespan_ms <= static_cast<double>(cfg.timeout_ms));
  result.wall_ms = static_cast<double>(sr.wall_ns) / 1e6;
  result.cpu_ms = static_cast<double>(sr.stats.sequential_equivalent_ns()) / 1e6;
  result.delta_matches = sr.delta_matches();
  result.nodes = sr.nodes;
  result.classifier = sr.classifier;
  result.worker_busy_ns.reserve(sr.stats.workers.size());
  for (const auto& w : sr.stats.workers) result.worker_busy_ns.push_back(w.busy_ns);
  return result;
}

}  // namespace

RunResult run_stream(const Workload& wl, const QueryGraph& q, const RunConfig& cfg) {
  if (cfg.mode == Mode::kSequential) return run_sequential(wl, q, cfg);
  return run_parallel(wl, q, cfg);
}

AggregateResult run_all_queries(const Workload& wl, const RunConfig& cfg) {
  AggregateResult agg;
  if (wl.queries.empty()) return agg;
  double sum_ms = 0;
  std::uint32_t successes = 0;
  for (const QueryGraph& q : wl.queries) {
    const RunResult r = run_stream(wl, q, cfg);
    if (r.success) {
      ++successes;
      sum_ms += r.effective_ms();
      agg.delta_matches += r.delta_matches;
    }
    agg.classifier.merge(r.classifier);
  }
  agg.mean_ms = successes > 0 ? sum_ms / successes : 0.0;
  agg.success_rate =
      100.0 * static_cast<double>(successes) / static_cast<double>(wl.queries.size());
  return agg;
}

}  // namespace paracosm::bench
