// bench_baseline — machine-readable substrate + end-to-end baseline numbers.
//
// Emits a single JSON document (default results/BENCH_baseline.json) with two
// sections:
//
//   * "micro": hand-timed per-operation costs of the matching substrate —
//     cached NLF lookup vs O(d) recount, signature containment, label-segment
//     vs filtered adjacency iteration, epoch-stamped vs linear used-checks,
//     and edge mutation/lookup. These are the constants the macro tables are
//     built from.
//   * "macro": CI-sized sequential runs of every backtracking algorithm over
//     one generated workload, with the ADS-update / Find_Matches split.
//
// CI runs this once per build and archives the JSON, so substrate regressions
// show up as artifact diffs rather than anecdotes.
//
//   bench_baseline --out results/BENCH_baseline.json --scale 0.25
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common/workload.hpp"
#include "bench_common/reporting.hpp"
#include "bench_common/runner.hpp"
#include "csm/scratch.hpp"
#include "graph/generators.hpp"
#include "graph/nlf_signature.hpp"
#include "obs/metrics.hpp"
#include "paracosm/multi_query.hpp"
#include "paracosm/paracosm.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/hw_topo.hpp"
#include "util/numa_alloc.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace paracosm;

/// ns/op for `body` repeated `iters` times (one warm-up pass first).
template <typename F>
double time_ns_per_op(std::uint64_t iters, F&& body) {
  body();  // warm caches, fault pages
  util::ThreadCpuTimer timer;
  for (std::uint64_t i = 0; i < iters; ++i) body();
  return static_cast<double>(timer.elapsed_ns()) / static_cast<double>(iters);
}

struct MicroResult {
  std::string name;
  double ns_per_op;
};

std::vector<MicroResult> run_micro(std::uint64_t iters) {
  std::vector<MicroResult> out;
  util::Rng gen(1);
  // Sized past L2 so the recount pays realistic per-neighbor misses (same
  // reasoning as bench/micro_substrates.cpp).
  constexpr std::uint32_t kVerts = 32768;
  graph::DataGraph g = graph::generate_erdos_renyi(kVerts, 524288, 8, 4, gen);

  // Volatile-free sinks: accumulate into a checksum the compiler can't drop.
  std::uint64_t sink = 0;

  util::Rng rng(2);
  out.push_back({"nlf_lookup_cached", time_ns_per_op(iters, [&] {
                   sink += g.nlf(static_cast<graph::VertexId>(rng.bounded(kVerts)),
                                 static_cast<graph::Label>(rng.bounded(8)));
                 })});
  rng = util::Rng(2);
  out.push_back({"nlf_lookup_recount", time_ns_per_op(iters, [&] {
                   sink += g.nlf_recount(
                       static_cast<graph::VertexId>(rng.bounded(kVerts)),
                       static_cast<graph::Label>(rng.bounded(8)));
                 })});
  rng = util::Rng(3);
  out.push_back({"nlf_signature_covers", time_ns_per_op(iters, [&] {
                   const auto a = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   const auto b = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   sink += graph::nlf_sig_covers(g.nlf_signature(a), g.nlf_signature(b))
                               ? 1
                               : 0;
                 })});
  rng = util::Rng(4);
  out.push_back({"neighbors_label_segment", time_ns_per_op(iters, [&] {
                   const auto v = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   const auto l = static_cast<graph::Label>(rng.bounded(8));
                   for (const auto& nb : g.neighbors_with_label(v, l)) sink += nb.v;
                 })});
  rng = util::Rng(4);
  out.push_back({"neighbors_filtered_scan", time_ns_per_op(iters, [&] {
                   const auto v = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   const auto l = static_cast<graph::Label>(rng.bounded(8));
                   for (const auto& nb : g.neighbors(v))
                     if (g.label(nb.v) == l) sink += nb.v;
                 })});
  rng = util::Rng(5);
  out.push_back({"edge_lookup", time_ns_per_op(iters, [&] {
                   const auto u = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   const auto v = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   sink += g.has_edge(u, v) ? 1 : 0;
                 })});
  rng = util::Rng(6);
  out.push_back({"edge_add_remove", time_ns_per_op(iters, [&] {
                   const auto u = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   const auto v = static_cast<graph::VertexId>(rng.bounded(kVerts));
                   if (g.add_edge(u, v, 0)) sink += g.remove_edge(u, v) ? 1 : 0;
                 })});

  csm::SearchScratch s;
  s.prepare(8, 65536);
  rng = util::Rng(7);
  for (int i = 0; i < 8; ++i)
    s.mark_used(static_cast<graph::VertexId>(rng.bounded(65536)));
  out.push_back({"scratch_used_epoch", time_ns_per_op(iters, [&] {
                   sink += s.is_used(static_cast<graph::VertexId>(rng.bounded(65536)))
                               ? 1
                               : 0;
                 })});
  out.push_back({"scratch_prepare", time_ns_per_op(iters, [&] {
                   s.prepare(8, 65536);
                   sink += s.map.size();
                 })});

  if (sink == 0xdeadbeef) std::fprintf(stderr, "(unreachable)\n");
  return out;
}

struct MacroResult {
  std::string algorithm;
  bench::RunResult run;
};

std::vector<MacroResult> run_macro(double scale, std::uint32_t queries,
                                   std::int64_t stream_cap, std::int64_t timeout_ms,
                                   std::uint64_t seed) {
  bench::Workload wl = bench::build_workload(graph::livejournal_spec(scale), 6,
                                             queries, 0.10, seed);
  if (stream_cap > 0 && wl.stream.size() > static_cast<std::size_t>(stream_cap))
    wl.stream.resize(static_cast<std::size_t>(stream_cap));
  std::vector<MacroResult> out;
  for (const char* alg :
       {"graphflow", "turboflux", "symbi", "rapidflow", "newsp"}) {
    bench::RunConfig cfg;
    cfg.algorithm = alg;
    cfg.mode = bench::Mode::kSequential;
    cfg.timeout_ms = timeout_ms;
    // Aggregate over the workload's queries: sum the per-query splits so the
    // JSON stays one row per algorithm.
    bench::RunResult total;
    total.success = true;
    for (const auto& q : wl.queries) {
      const bench::RunResult r = bench::run_stream(wl, q, cfg);
      total.success = total.success && r.success;
      total.wall_ms += r.wall_ms;
      total.cpu_ms += r.cpu_ms;
      total.sim_makespan_ms += r.sim_makespan_ms;
      total.delta_matches += r.delta_matches;
      total.nodes += r.nodes;
      total.ads_ms += r.ads_ms;
      total.search_ms += r.search_ms;
    }
    out.push_back({alg, total});
  }
  return out;
}

/// Runtime counters of the lock-free scheduler, collected from one parallel
/// work-stealing run at 8 threads over the same workload. Archived alongside
/// the micro numbers so contention regressions (steal success collapsing,
/// park storms, lopsided batch shards) show up as artifact diffs.
struct SchedulerResult {
  std::uint64_t steals_attempted = 0;
  std::uint64_t steals_succeeded = 0;
  std::uint64_t steals_local = 0;      ///< SMT-sibling victims
  std::uint64_t steals_same_node = 0;  ///< same NUMA node, different core
  std::uint64_t steals_remote = 0;     ///< cross-node
  double remote_steal_share = 0;
  std::uint64_t offloads = 0;  ///< tasks re-split onto the queue
  std::uint64_t parks = 0;
  std::uint64_t shard_updates = 0;  ///< safe updates applied via batch shards
  double dispatch_ms = 0;
  double makespan_ms = 0;
  std::uint64_t delta_matches = 0;
};

SchedulerResult run_scheduler(double scale, std::int64_t stream_cap,
                              std::uint64_t seed,
                              engine::BatchBackendKind backend) {
  bench::Workload wl =
      bench::build_workload(graph::livejournal_spec(scale), 6, 1, 0.10, seed);
  if (stream_cap > 0 && wl.stream.size() > static_cast<std::size_t>(stream_cap))
    wl.stream.resize(static_cast<std::size_t>(stream_cap));
  SchedulerResult out;
  if (wl.queries.empty()) return out;
  auto alg = csm::make_algorithm("graphflow");
  graph::DataGraph g = wl.graph;
  engine::Config cfg;
  cfg.threads = 8;
  cfg.scheduler = engine::Scheduler::kWorkStealing;
  cfg.batch_backend = backend;
  engine::ParaCosm pc(*alg, wl.queries.front(), g, cfg);
  const engine::StreamResult r = pc.process_stream(wl.stream);
  out.steals_attempted = r.stats.total_steals_attempted();
  out.steals_succeeded = r.stats.total_steals_succeeded();
  out.steals_local = r.stats.total_steals_local();
  out.steals_same_node = r.stats.total_steals_same_node();
  out.steals_remote = r.stats.total_steals_remote();
  out.remote_steal_share = r.stats.remote_steal_share();
  out.offloads = r.stats.total_offloads();
  out.parks = r.stats.total_parks();
  out.shard_updates = r.stats.total_shard_updates();
  out.dispatch_ms = static_cast<double>(r.stats.dispatch_ns) / 1e6;
  out.makespan_ms = static_cast<double>(r.stats.simulated_makespan_ns()) / 1e6;
  out.delta_matches = r.delta_matches();
  return out;
}

/// Batch-backend differential (DESIGN.md §11): the same stream through the
/// inter-update batch executor once per classification backend. Both arms
/// must produce identical match totals — the safe-batch equivalence claim —
/// and the per-backend counters (lanes resolved wide, scalar fallbacks,
/// SWAR-vs-AVX2 dispatch) are archived so a silent routing regression shows
/// up as an artifact diff.
struct BackendLane {
  double wall_ms = 0;
  std::uint64_t delta_matches = 0;
  engine::BatchBackendStats stats;
};

struct BackendResult {
  std::uint64_t updates = 0;
  BackendLane cpu;
  BackendLane wide;
  bool totals_match = true;
};

BackendLane run_backend_lane(const bench::Workload& wl,
                             engine::BatchBackendKind kind) {
  BackendLane out;
  auto alg = csm::make_algorithm("newsp");
  graph::DataGraph g = wl.graph;
  engine::Config cfg;
  cfg.threads = 4;
  cfg.batch_backend = kind;
  engine::ParaCosm pc(*alg, wl.queries.front(), g, cfg);
  const engine::StreamResult r = pc.process_stream(wl.stream);
  out.wall_ms = static_cast<double>(r.wall_ns) / 1e6;
  out.delta_matches = r.delta_matches();
  out.stats = kind == engine::BatchBackendKind::kCpu ? r.backend_cpu
                                                     : r.backend_wide;
  return out;
}

BackendResult run_backend(double scale, std::int64_t stream_cap,
                          std::uint64_t seed) {
  bench::Workload wl =
      bench::build_workload(graph::livejournal_spec(scale), 6, 1, 0.10, seed);
  if (stream_cap > 0 && wl.stream.size() > static_cast<std::size_t>(stream_cap))
    wl.stream.resize(static_cast<std::size_t>(stream_cap));
  BackendResult out;
  if (wl.queries.empty()) return out;
  out.updates = wl.stream.size();
  out.cpu = run_backend_lane(wl, engine::BatchBackendKind::kCpu);
  out.wide = run_backend_lane(wl, engine::BatchBackendKind::kWide);
  out.totals_match = out.cpu.delta_matches == out.wide.delta_matches;
  return out;
}

/// Service-layer cost accounting: the same stream pushed through
/// StreamService twice — once with the watchdog off, once with a deadline so
/// generous it never fires. The delta between the two is the pure overhead of
/// arming a cancellation epoch + watchdog per update, which the acceptance
/// criteria cap at 2%; CI archives both so the ratio is an artifact diff, not
/// an anecdote. Latency percentiles and the resilience counters ride along.
struct ServiceLane {
  double wall_ms = 0;
  bench::LatencySummary latency;
  engine::ServiceStats stats;
};

struct ServiceResult {
  std::uint64_t updates = 0;
  ServiceLane no_deadline;
  ServiceLane armed;  ///< 10s budget: enabled but never firing at this scale
};

ServiceLane run_service_lane(const bench::Workload& wl, std::int64_t budget_us) {
  ServiceLane out;
  auto alg = csm::make_algorithm("graphflow");
  graph::DataGraph g = wl.graph;
  engine::Config cfg;
  cfg.threads = 4;
  cfg.inter_parallelism = false;
  engine::ParaCosm pc(*alg, wl.queries.front(), g, cfg);

  service::ServiceOptions sopts;
  sopts.budget_us = budget_us;
  service::StreamService svc(pc, sopts);
  for (const graph::GraphUpdate& upd : wl.stream) (void)svc.submit(upd);
  const service::ServiceReport report = svc.finish();
  out.wall_ms = static_cast<double>(report.wall_ns) / 1e6;
  out.latency = bench::summarize_histogram(report.latency);
  out.stats = report.stats;
  return out;
}

ServiceResult run_service(double scale, std::int64_t stream_cap,
                          std::uint64_t seed) {
  bench::Workload wl =
      bench::build_workload(graph::livejournal_spec(scale), 6, 1, 0.10, seed);
  if (stream_cap > 0 && wl.stream.size() > static_cast<std::size_t>(stream_cap))
    wl.stream.resize(static_cast<std::size_t>(stream_cap));
  ServiceResult out;
  if (wl.queries.empty()) return out;
  out.updates = wl.stream.size();
  // One wall sample per lane is noise at this duration; interleave repeats
  // and keep each lane's best run so the overhead ratio compares floors, not
  // scheduler luck.
  constexpr int kRepeats = 15;
  for (int i = 0; i < kRepeats; ++i) {
    ServiceLane base = run_service_lane(wl, 0);
    ServiceLane armed = run_service_lane(wl, 10'000'000);
    if (i == 0 || base.wall_ms < out.no_deadline.wall_ms) out.no_deadline = base;
    if (i == 0 || armed.wall_ms < out.armed.wall_ms) out.armed = armed;
  }
  return out;
}

/// Shared multi-query evaluation at a fixed catalogue size (DESIGN.md §9):
/// the same registrations through the three-tier shared path and through the
/// independent per-query baseline, so tier regressions show up as a speedup
/// drop in the archived JSON.
struct MultiQueryLane {
  double wall_ms = 0;
  std::size_t classes = 0;
  engine::MultiStreamResult res;
};

struct MultiQueryResult {
  std::uint64_t updates = 0;
  std::size_t catalogue = 0;
  MultiQueryLane shared;
  MultiQueryLane independent;
  bool totals_match = true;
};

MultiQueryLane run_multi_query_lane(const bench::Workload& wl, std::size_t catalogue,
                                    bool shared) {
  MultiQueryLane out;
  graph::DataGraph g = wl.graph;
  engine::Config cfg;
  cfg.threads = 4;
  engine::MultiQueryEngine eng(g, cfg);
  eng.set_shared_evaluation(shared);
  for (std::size_t i = 0; i < catalogue; ++i)
    eng.add_query("graphflow", wl.queries[i % wl.queries.size()]);
  out.classes = eng.num_classes();
  const util::WallTimer timer;
  out.res = eng.process_stream(wl.stream);
  out.wall_ms = timer.elapsed_ms();
  return out;
}

MultiQueryResult run_multi_query(double scale, std::uint32_t queries,
                                 std::int64_t stream_cap, std::uint64_t seed) {
  constexpr std::size_t kCatalogue = 64;
  bench::Workload wl = bench::build_workload(graph::livejournal_spec(scale), 5,
                                             std::max(queries, 1u), 0.10, seed,
                                             /*delete_fraction=*/0.3);
  if (stream_cap > 0 && wl.stream.size() > static_cast<std::size_t>(stream_cap))
    wl.stream.resize(static_cast<std::size_t>(stream_cap));
  MultiQueryResult out;
  if (wl.queries.empty()) return out;
  out.updates = wl.stream.size();
  out.catalogue = kCatalogue;
  // Same best-of-repeats discipline as the service section.
  constexpr int kRepeats = 3;
  for (int i = 0; i < kRepeats; ++i) {
    MultiQueryLane sh = run_multi_query_lane(wl, kCatalogue, true);
    MultiQueryLane in = run_multi_query_lane(wl, kCatalogue, false);
    if (i == 0 || sh.wall_ms < out.shared.wall_ms) out.shared = std::move(sh);
    if (i == 0 || in.wall_ms < out.independent.wall_ms) out.independent = std::move(in);
  }
  out.totals_match = out.shared.res.positive == out.independent.res.positive &&
                     out.shared.res.negative == out.independent.res.negative;
  return out;
}

void write_service_lane_json(std::FILE* f, const char* name,
                             const ServiceLane& lane, bool last) {
  const auto& s = lane.stats;
  std::fprintf(f,
               "    \"%s\": {\"wall_ms\": %.3f, "
               "\"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, "
               "\"p999\": %.1f, \"max\": %.1f}, "
               "\"degraded_searches\": %llu, \"watchdog_cancels\": %llu, "
               "\"shed\": %llu, \"deferred_retries\": %llu, "
               "\"replayed_updates\": %llu}%s\n",
               name, lane.wall_ms,
               static_cast<double>(lane.latency.p50_ns) / 1e3,
               static_cast<double>(lane.latency.p95_ns) / 1e3,
               static_cast<double>(lane.latency.p99_ns) / 1e3,
               static_cast<double>(lane.latency.p999_ns) / 1e3,
               static_cast<double>(lane.latency.max_ns) / 1e3,
               static_cast<unsigned long long>(s.degraded_searches),
               static_cast<unsigned long long>(s.watchdog_cancels),
               static_cast<unsigned long long>(s.ingest.shed),
               static_cast<unsigned long long>(s.deferred_retries),
               static_cast<unsigned long long>(s.replayed_updates),
               last ? "" : ",");
}

void write_backend_lane_json(std::FILE* f, const char* name,
                             const BackendLane& lane) {
  const engine::BatchBackendStats& s = lane.stats;
  std::fprintf(f,
               "    \"%s\": {\"wall_ms\": %.3f, \"delta_matches\": %llu, "
               "\"batches\": %llu, \"lanes\": %llu, \"safe_label\": %llu, "
               "\"safe_degree\": %llu, \"safe_ads\": %llu, \"unsafe\": %llu, "
               "\"wide_resolved\": %llu, \"scalar_fallbacks\": %llu, "
               "\"swar_prerejects\": %llu, \"avx2_batches\": %llu, "
               "\"swar_batches\": %llu, \"fallback_activations\": %llu, "
               "\"verify_diffs\": %llu},\n",
               name, lane.wall_ms,
               static_cast<unsigned long long>(lane.delta_matches),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.lanes),
               static_cast<unsigned long long>(s.safe_label),
               static_cast<unsigned long long>(s.safe_degree),
               static_cast<unsigned long long>(s.safe_ads),
               static_cast<unsigned long long>(s.unsafe_lanes),
               static_cast<unsigned long long>(s.wide_resolved()),
               static_cast<unsigned long long>(s.scalar_fallbacks),
               static_cast<unsigned long long>(s.swar_prerejects),
               static_cast<unsigned long long>(s.avx2_batches),
               static_cast<unsigned long long>(s.swar_batches),
               static_cast<unsigned long long>(s.fallback_activations),
               static_cast<unsigned long long>(s.verify_diffs));
}

void write_json(const std::string& path, const std::vector<MicroResult>& micro,
                const std::vector<MacroResult>& macro, const SchedulerResult& sched,
                const BackendResult& backend, const ServiceResult& svc,
                const MultiQueryResult& multi, double scale,
                std::uint32_t queries, std::int64_t stream_cap,
                std::uint64_t seed) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // fopen reports failure
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"scale\": %g, \"queries\": %u, \"stream\": %lld, "
               "\"seed\": %llu},\n",
               scale, queries, static_cast<long long>(stream_cap),
               static_cast<unsigned long long>(seed));
  // Machine shape the numbers were taken on: without this, cross-host diffs
  // of the scheduler counters are apples-to-oranges.
  const util::HwTopology& topo = util::HwTopology::cached();
  std::fprintf(f,
               "  \"topology\": {\"source\": \"%s\", \"cpus\": %u, "
               "\"cores\": %u, \"nodes\": %u, \"packages\": %u, "
               "\"smt\": %s, \"affinity_cpus\": %u, \"numa_compiled\": %s, "
               "\"numa_available\": %s},\n",
               util::topo_source_name(topo.source), topo.num_cpus(),
               topo.num_cores, topo.num_nodes, topo.num_packages,
               topo.smt ? "true" : "false", util::affinity_cpu_count(),
               util::numa::compiled() ? "true" : "false",
               util::numa::available() ? "true" : "false");
  std::fprintf(f, "  \"micro_ns_per_op\": {\n");
  for (std::size_t i = 0; i < micro.size(); ++i)
    std::fprintf(f, "    \"%s\": %.2f%s\n", micro[i].name.c_str(), micro[i].ns_per_op,
                 i + 1 < micro.size() ? "," : "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"macro_sequential\": [\n");
  for (std::size_t i = 0; i < macro.size(); ++i) {
    const auto& m = macro[i];
    std::fprintf(f,
                 "    {\"algorithm\": \"%s\", \"success\": %s, \"total_ms\": %.3f, "
                 "\"ads_update_ms\": %.3f, \"find_matches_ms\": %.3f, "
                 "\"delta_matches\": %llu, \"nodes\": %llu}%s\n",
                 m.algorithm.c_str(), m.run.success ? "true" : "false",
                 m.run.cpu_ms, m.run.ads_ms, m.run.search_ms,
                 static_cast<unsigned long long>(m.run.delta_matches),
                 static_cast<unsigned long long>(m.run.nodes),
                 i + 1 < macro.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"scheduler_8threads\": {\"steals_attempted\": %llu, "
               "\"steals_succeeded\": %llu, \"steals_local\": %llu, "
               "\"steals_same_node\": %llu, \"steals_remote\": %llu, "
               "\"remote_steal_share\": %.4f, \"tasks_resplit\": %llu, "
               "\"parks\": %llu, \"shard_updates\": %llu, "
               "\"dispatch_ms\": %.3f, \"sim_makespan_ms\": %.3f, "
               "\"delta_matches\": %llu},\n",
               static_cast<unsigned long long>(sched.steals_attempted),
               static_cast<unsigned long long>(sched.steals_succeeded),
               static_cast<unsigned long long>(sched.steals_local),
               static_cast<unsigned long long>(sched.steals_same_node),
               static_cast<unsigned long long>(sched.steals_remote),
               sched.remote_steal_share,
               static_cast<unsigned long long>(sched.offloads),
               static_cast<unsigned long long>(sched.parks),
               static_cast<unsigned long long>(sched.shard_updates),
               sched.dispatch_ms, sched.makespan_ms,
               static_cast<unsigned long long>(sched.delta_matches));
  std::fprintf(f, "  \"backend\": {\n");
  std::fprintf(f, "    \"updates\": %llu,\n",
               static_cast<unsigned long long>(backend.updates));
  write_backend_lane_json(f, "cpu", backend.cpu);
  write_backend_lane_json(f, "wide", backend.wide);
  std::fprintf(f, "    \"totals_match\": %s\n",
               backend.totals_match ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"service\": {\n");
  std::fprintf(f, "    \"updates\": %llu,\n",
               static_cast<unsigned long long>(svc.updates));
  write_service_lane_json(f, "no_deadline", svc.no_deadline, false);
  write_service_lane_json(f, "armed_deadline", svc.armed, false);
  const double base = svc.no_deadline.wall_ms;
  std::fprintf(f, "    \"armed_overhead_pct\": %.2f\n",
               base > 0 ? (svc.armed.wall_ms - base) / base * 100.0 : 0.0);
  std::fprintf(f, "  },\n");
  const engine::MultiQueryStats& mq = multi.shared.res.mq;
  std::fprintf(f,
               "  \"multi_query\": {\"updates\": %llu, \"catalogue\": %zu, "
               "\"classes\": %zu, \"shared_ms\": %.3f, \"independent_ms\": %.3f, "
               "\"speedup\": %.2f, \"verdicts_by_index\": %llu, "
               "\"verdicts_grouped\": %llu, \"group_hits\": %llu, "
               "\"searches_shared\": %llu, \"searches_skipped\": %llu, "
               "\"totals_match\": %s}\n",
               static_cast<unsigned long long>(multi.updates), multi.catalogue,
               multi.shared.classes, multi.shared.wall_ms, multi.independent.wall_ms,
               multi.shared.wall_ms > 0
                   ? multi.independent.wall_ms / multi.shared.wall_ms
                   : 0.0,
               static_cast<unsigned long long>(mq.verdicts_by_index),
               static_cast<unsigned long long>(mq.verdicts_grouped),
               static_cast<unsigned long long>(mq.group_hits),
               static_cast<unsigned long long>(mq.searches_shared),
               static_cast<unsigned long long>(mq.searches_skipped),
               multi.totals_match ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Flat counter view of the same run (obs/metrics.hpp): one metric per line,
/// CSV or JSON by extension — the form dashboards and diff tooling ingest
/// without parsing the nested report above.
void write_metrics(const std::string& path, const std::vector<MicroResult>& micro,
                   const std::vector<MacroResult>& macro,
                   const SchedulerResult& sched, const BackendResult& backend,
                   const ServiceResult& svc, const MultiQueryResult& multi) {
  obs::MetricsSnapshot snap;
  for (const MicroResult& m : micro)
    snap.add_gauge("micro." + m.name + ".ns_per_op", m.ns_per_op);
  for (const MacroResult& m : macro) {
    snap.add_gauge("macro." + m.algorithm + ".total_ms", m.run.cpu_ms);
    snap.add_counter("macro." + m.algorithm + ".delta_matches",
                     static_cast<std::int64_t>(m.run.delta_matches));
  }
  snap.add_counter("scheduler.steals_succeeded",
                   static_cast<std::int64_t>(sched.steals_succeeded));
  snap.add_counter("scheduler.steals_attempted",
                   static_cast<std::int64_t>(sched.steals_attempted));
  snap.add_counter("scheduler.steals_local",
                   static_cast<std::int64_t>(sched.steals_local));
  snap.add_counter("scheduler.steals_same_node",
                   static_cast<std::int64_t>(sched.steals_same_node));
  snap.add_counter("scheduler.steals_remote",
                   static_cast<std::int64_t>(sched.steals_remote));
  snap.add_counter("scheduler.tasks_resplit",
                   static_cast<std::int64_t>(sched.offloads));
  snap.add_counter("scheduler.parks", static_cast<std::int64_t>(sched.parks));
  for (const auto& [name, lane] :
       {std::pair<const char*, const BackendLane*>{"cpu", &backend.cpu},
        {"wide", &backend.wide}}) {
    const std::string p = std::string("backend.") + name + ".";
    snap.add_gauge(p + "wall_ms", lane->wall_ms);
    snap.add_counter(p + "batches", static_cast<std::int64_t>(lane->stats.batches));
    snap.add_counter(p + "lanes", static_cast<std::int64_t>(lane->stats.lanes));
    snap.add_counter(p + "wide_resolved",
                     static_cast<std::int64_t>(lane->stats.wide_resolved()));
    snap.add_counter(p + "swar_prerejects",
                     static_cast<std::int64_t>(lane->stats.swar_prerejects));
    snap.add_counter(p + "scalar_fallbacks",
                     static_cast<std::int64_t>(lane->stats.scalar_fallbacks));
    snap.add_counter(p + "fallback_activations",
                     static_cast<std::int64_t>(lane->stats.fallback_activations));
  }
  snap.add_gauge("service.no_deadline.wall_ms", svc.no_deadline.wall_ms);
  snap.add_gauge("service.armed.wall_ms", svc.armed.wall_ms);
  snap.add_counter("service.no_deadline.latency_ns.p50",
                   svc.no_deadline.latency.p50_ns);
  snap.add_counter("service.no_deadline.latency_ns.p99",
                   svc.no_deadline.latency.p99_ns);
  snap.add_counter("service.no_deadline.latency_ns.p999",
                   svc.no_deadline.latency.p999_ns);
  snap.add_gauge("multi_query.shared_ms", multi.shared.wall_ms);
  snap.add_gauge("multi_query.independent_ms", multi.independent.wall_ms);
  snap.add_counter("multi_query.verdicts_by_index",
                   static_cast<std::int64_t>(multi.shared.res.mq.verdicts_by_index));
  snap.add_counter("multi_query.verdicts_grouped",
                   static_cast<std::int64_t>(multi.shared.res.mq.verdicts_grouped));
  snap.add_counter("multi_query.searches_shared",
                   static_cast<std::int64_t>(multi.shared.res.mq.searches_shared));
  snap.add_counter("multi_query.searches_skipped",
                   static_cast<std::int64_t>(multi.shared.res.mq.searches_skipped));
  try {
    snap.write(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_baseline",
                "emit machine-readable substrate + sequential baseline numbers");
  cli.option("out", "results/BENCH_baseline.json", "output JSON path")
      .option("iters", "200000", "iterations per micro measurement")
      .option("scale", "0.6", "dataset size multiplier for the macro section")
      .option("queries", "3", "queries in the macro workload")
      .option("stream", "2000", "stream updates for the macro section (0 = all)")
      .option("timeout-ms", "4000", "per-query budget for the macro section")
      .option("metrics-out", "",
              "also write a flat metrics snapshot (.csv or JSON by extension)")
      .option("backend", "cpu",
              "batch classification backend for the scheduler section "
              "(cpu|wide|auto); the backend section always runs both arms")
      .option("seed", "42", "random seed");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  if (cli.get_int("iters") <= 0 || cli.get_double("scale") <= 0.0) {
    std::fprintf(stderr, "error: --iters and --scale must be positive\n");
    return 1;
  }
  const auto iters = static_cast<std::uint64_t>(cli.get_int("iters"));
  const double scale = cli.get_double("scale");
  const auto queries = static_cast<std::uint32_t>(cli.get_int("queries"));
  const std::int64_t stream_cap = cli.get_int("stream");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto backend_kind = engine::parse_batch_backend(cli.get("backend"));
  if (!backend_kind) {
    std::fprintf(stderr, "error: --backend must be cpu, wide or auto\n");
    return 1;
  }

  const auto micro = run_micro(iters);
  const auto macro = run_macro(scale, queries, stream_cap,
                               cli.get_int("timeout-ms"), seed);
  const auto sched = run_scheduler(scale, stream_cap, seed, *backend_kind);
  const auto backend = run_backend(scale, stream_cap, seed);
  const auto svc = run_service(scale, stream_cap, seed);
  const auto multi = run_multi_query(scale, queries, stream_cap, seed);
  write_json(cli.get("out"), micro, macro, sched, backend, svc, multi, scale,
             queries, stream_cap, seed);
  if (const std::string mpath = cli.get("metrics-out"); !mpath.empty())
    write_metrics(mpath, micro, macro, sched, backend, svc, multi);

  for (const auto& m : micro)
    std::printf("%-26s %10.2f ns/op\n", m.name.c_str(), m.ns_per_op);
  for (const auto& m : macro)
    std::printf("%-10s total %8.3f ms (ads %7.3f, find %7.3f) dM=%llu\n",
                m.algorithm.c_str(), m.run.cpu_ms, m.run.ads_ms, m.run.search_ms,
                static_cast<unsigned long long>(m.run.delta_matches));
  std::printf(
      "scheduler@8t: steals %llu/%llu, resplit %llu, parks %llu, shards %llu, "
      "dispatch %.3f ms\n",
      static_cast<unsigned long long>(sched.steals_succeeded),
      static_cast<unsigned long long>(sched.steals_attempted),
      static_cast<unsigned long long>(sched.offloads),
      static_cast<unsigned long long>(sched.parks),
      static_cast<unsigned long long>(sched.shard_updates),
      sched.dispatch_ms);
  std::printf(
      "backend@4t:   cpu %.3f ms vs wide %.3f ms over %llu updates "
      "(wide resolved %llu/%llu lanes, totals %s)\n",
      backend.cpu.wall_ms, backend.wide.wall_ms,
      static_cast<unsigned long long>(backend.updates),
      static_cast<unsigned long long>(backend.wide.stats.wide_resolved()),
      static_cast<unsigned long long>(backend.wide.stats.lanes),
      backend.totals_match ? "match" : "MISMATCH");
  const double base_ms = svc.no_deadline.wall_ms;
  std::printf(
      "service@4t:   %llu updates, p50/p95/p99 %.1f/%.1f/%.1f us; armed "
      "deadline overhead %+.2f%%\n",
      static_cast<unsigned long long>(svc.updates),
      static_cast<double>(svc.no_deadline.latency.p50_ns) / 1e3,
      static_cast<double>(svc.no_deadline.latency.p95_ns) / 1e3,
      static_cast<double>(svc.no_deadline.latency.p99_ns) / 1e3,
      base_ms > 0 ? (svc.armed.wall_ms - base_ms) / base_ms * 100.0 : 0.0);
  std::printf(
      "multiquery@4t: %zu standing queries -> %zu classes, shared %.3f ms vs "
      "independent %.3f ms (%.2fx, totals %s)\n",
      multi.catalogue, multi.shared.classes, multi.shared.wall_ms,
      multi.independent.wall_ms,
      multi.shared.wall_ms > 0 ? multi.independent.wall_ms / multi.shared.wall_ms
                               : 0.0,
      multi.totals_match ? "match" : "MISMATCH");
  std::printf("wrote %s\n", cli.get("out").c_str());
  return 0;
}
