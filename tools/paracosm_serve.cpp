// paracosm_serve — run the overload-resilient service layer over files
// (DESIGN.md §7): bounded ingest with a selectable overload policy, per-update
// search deadlines enforced by the watchdog, WAL + snapshot durability, and
// crash recovery.
//
//   paracosm_serve --graph g.graph --query q.graph --stream u.stream
//     --algorithm symbi --threads 8 --policy block --queue 1024
//     --budget-us 500 --wal service.wal --snapshot service.snap
//     --snapshot-every 64
//
// Crash drill (the CI smoke job): run once with --kill-at N — the process
// _exits(137) the instant record N is durable but not yet applied — then run
// again with --recover; the service replays the WAL suffix and finishes the
// stream. --verify-final cross-checks the end state against the recompute
// oracle. Fault injection (--kill-at, --timeout-rate, --slow-consumer-us)
// exists so resilience is testable, not just claimed.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/reporting.hpp"
#include "graph/graph_io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/multi_query.hpp"
#include "paracosm/paracosm.hpp"
#include "service/multi_service.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "shard/coordinator.hpp"
#include "shard/fault.hpp"
#include "util/checksum.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "verify/oracle_mirror.hpp"

using namespace paracosm;

namespace {

/// SIGTERM/SIGINT request a graceful stop: the submit loop breaks, the
/// service (or coordinator) drains what was already enqueued, flushes WAL +
/// final snapshot + metrics/trace, and the process exits 0.
volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

bool parse_policy(const std::string& name, service::OverloadPolicy& out) {
  if (name == "block") out = service::OverloadPolicy::kBlock;
  else if (name == "shed") out = service::OverloadPolicy::kShed;
  else if (name == "degrade") out = service::OverloadPolicy::kDegrade;
  else return false;
  return true;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// One runtime admin event for --add-at / --remove-at, applied at a stream
/// position with a drain barrier (so the boundary is exact).
struct AdminEvent {
  std::size_t at = 0;
  bool add = false;
  std::string query_file;  // add
  std::string algorithm;   // add
  std::size_t handle = 0;  // remove
};

/// --add-at clause: "N:file:alg"; --remove-at clause: "N:handle".
bool parse_admin_events(const std::string& add_spec, const std::string& rm_spec,
                        std::vector<AdminEvent>& out) {
  for (const std::string& clause : split_csv(add_spec)) {
    const std::size_t c1 = clause.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : clause.find(':', c1 + 1);
    if (c2 == std::string::npos) return false;
    AdminEvent ev;
    ev.add = true;
    ev.at = static_cast<std::size_t>(std::stoull(clause.substr(0, c1)));
    ev.query_file = clause.substr(c1 + 1, c2 - c1 - 1);
    ev.algorithm = clause.substr(c2 + 1);
    out.push_back(std::move(ev));
  }
  for (const std::string& clause : split_csv(rm_spec)) {
    const std::size_t c1 = clause.find(':');
    if (c1 == std::string::npos) return false;
    AdminEvent ev;
    ev.at = static_cast<std::size_t>(std::stoull(clause.substr(0, c1)));
    ev.handle = static_cast<std::size_t>(std::stoull(clause.substr(c1 + 1)));
    out.push_back(std::move(ev));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const AdminEvent& a, const AdminEvent& b) { return a.at < b.at; });
  return true;
}

struct MultiQueryInfo {
  std::size_t handle = 0;
  std::string file;
  std::string algorithm;
};

void write_multi_json_report(const std::string& path,
                             const service::MultiServiceReport& r,
                             const std::vector<MultiQueryInfo>& queries,
                             const bench::LatencySummary& lat, unsigned threads,
                             const char* policy) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write --report-json '%s'\n",
                 path.c_str());
    return;
  }
  const auto& s = r.stats;
  const auto& mq = r.mq;
  out << "{\n"
      << "  \"mode\": \"multi\",\n"
      << "  \"threads\": " << threads << ",\n";
  out << "  \"policy\": \"" << policy << "\",\n"
      << "  \"wall_ns\": " << r.wall_ns << ",\n"
      << "  \"processed\": " << s.processed << ",\n"
      << "  \"deadline_hits\": " << r.deadline_hits << ",\n"
      << "  \"wal_records\": " << s.wal_records << ",\n"
      << "  \"queries\": [\n";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MultiQueryInfo& info = queries[i];
    const std::size_t h = info.handle;
    out << "    {\"handle\": " << h << ", \"file\": \"" << info.file
        << "\", \"algorithm\": \"" << info.algorithm
        << "\", \"positive\": " << (h < r.positive.size() ? r.positive[h] : 0)
        << ", \"negative\": " << (h < r.negative.size() ? r.negative[h] : 0)
        << ", \"degraded\": " << (h < r.degraded.size() ? r.degraded[h] : 0)
        << "}" << (i + 1 < queries.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"multi_query\": {\n"
      << "    \"updates_classified\": " << mq.updates_classified << ",\n"
      << "    \"index_probes\": " << mq.index_probes << ",\n"
      << "    \"index_empty\": " << mq.index_empty << ",\n"
      << "    \"verdicts_by_index\": " << mq.verdicts_by_index << ",\n"
      << "    \"verdicts_grouped\": " << mq.verdicts_grouped << ",\n"
      << "    \"group_checks\": " << mq.group_checks << ",\n"
      << "    \"group_hits\": " << mq.group_hits << ",\n"
      << "    \"ads_checks\": " << mq.ads_checks << ",\n"
      << "    \"searches_run\": " << mq.searches_run << ",\n"
      << "    \"searches_shared\": " << mq.searches_shared << ",\n"
      << "    \"searches_skipped\": " << mq.searches_skipped << ",\n"
      << "    \"anchors_checked\": " << mq.anchors_checked << "\n"
      << "  },\n"
      << "  \"ingest\": {\n"
      << "    \"enqueued\": " << s.ingest.enqueued << ",\n"
      << "    \"shed\": " << s.ingest.shed << ",\n"
      << "    \"high_water\": " << s.ingest.high_water << "\n"
      << "  },\n"
      << "  \"latency_ns\": {\n"
      << "    \"count\": " << lat.count << ",\n"
      << "    \"mean\": " << static_cast<std::int64_t>(lat.mean_ns) << ",\n"
      << "    \"p50\": " << lat.p50_ns << ",\n"
      << "    \"p95\": " << lat.p95_ns << ",\n"
      << "    \"p99\": " << lat.p99_ns << ",\n"
      << "    \"max\": " << lat.max_ns << "\n"
      << "  }\n"
      << "}\n";
}

/// --multi: serve a *catalogue* of standing queries through the shared
/// multi-query engine (ISSUE 6), with runtime registration via --add-at /
/// --remove-at. Returns the process exit code.
int run_multi(const util::Cli& cli, graph::DataGraph& g,
              const std::vector<graph::GraphUpdate>& stream,
              std::vector<graph::ParseError>* collector) {
  std::vector<std::string> query_files = split_csv(cli.get("queries"));
  if (query_files.empty() && !cli.get("query").empty())
    query_files.push_back(cli.get("query"));
  if (query_files.empty()) {
    std::fprintf(stderr, "error: --multi requires --queries (or --query)\n");
    return 2;
  }
  std::vector<std::string> algorithms = split_csv(cli.get("algorithms"));
  if (algorithms.empty()) algorithms.push_back(cli.get("algorithm"));

  service::MultiServiceOptions mopts;
  if (!parse_policy(cli.get("policy"), mopts.policy)) {
    std::fprintf(stderr, "error: unknown policy '%s'\n", cli.get("policy").c_str());
    return 2;
  }
  mopts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  mopts.budget_us = cli.get_int("budget-us");
  mopts.wal_path = cli.get("wal");

  std::vector<AdminEvent> admin;
  if (!parse_admin_events(cli.get("add-at"), cli.get("remove-at"), admin)) {
    std::fprintf(stderr,
                 "error: bad --add-at/--remove-at clause (want N:file:alg / "
                 "N:handle)\n");
    return 2;
  }

  engine::Config config;
  config.threads = static_cast<unsigned>(cli.get_int("threads"));
  config.pin_threads = cli.get_bool("pin");
  config.inter_parallelism = false;  // the service processes one update at a time
  engine::MultiQueryEngine engine(g, config);
  engine.set_shared_evaluation(!cli.get_bool("no-sharing"));

  engine::QueryOptions qopts;
  qopts.budget_us = cli.get_int("query-budget-us");

  std::vector<MultiQueryInfo> registered;
  try {
    for (std::size_t i = 0; i < query_files.size(); ++i) {
      graph::QueryGraph q = graph::load_query_graph_file(query_files[i], collector);
      const std::string& alg = algorithms[i % algorithms.size()];
      const std::size_t handle = engine.add_query(alg, std::move(q), qopts);
      registered.push_back({handle, query_files[i], alg});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf(
      "serving %zu update(s) to %zu quer(ies) in %zu class(es) [x%u, policy "
      "%s, queue %zu%s%s%s]\n",
      stream.size(), engine.num_queries(), engine.num_classes(),
      config.effective_threads(), cli.get("policy").c_str(), mopts.queue_capacity,
      mopts.budget_us > 0 ? ", deadline on" : "",
      mopts.wal_path.empty() ? "" : ", WAL on",
      engine.shared_evaluation() ? "" : ", sharing off");

  service::MultiServiceReport report;
  {
    service::MultiStreamService svc(engine, mopts);
    std::size_t next_admin = 0;
    for (std::size_t i = 0; i <= stream.size(); ++i) {
      while (next_admin < admin.size() && admin[next_admin].at <= i) {
        const AdminEvent& ev = admin[next_admin++];
        svc.drain();  // exact boundary: the change sees no in-flight updates
        try {
          if (ev.add) {
            graph::QueryGraph q =
                graph::load_query_graph_file(ev.query_file, collector);
            const std::size_t handle =
                svc.add_query(ev.algorithm, std::move(q), qopts);
            registered.push_back({handle, ev.query_file, ev.algorithm});
            std::printf("[admin @%zu] added %s (%s) -> handle %zu\n", ev.at,
                        ev.query_file.c_str(), ev.algorithm.c_str(), handle);
          } else {
            const bool ok = svc.remove_query(ev.handle);
            std::printf("[admin @%zu] removed handle %zu%s\n", ev.at, ev.handle,
                        ok ? "" : " (stale)");
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "error: admin event failed: %s\n", e.what());
          return 2;
        }
      }
      if (i < stream.size()) (void)svc.submit(stream[i]);
    }
    report = svc.finish();
  }

  if (!report.error.empty()) {
    std::fprintf(stderr, "error: service consumer failed: %s\n",
                 report.error.c_str());
    return 1;
  }

  const bench::LatencySummary lat = bench::summarize_histogram(report.latency);
  std::uint64_t tot_pos = 0, tot_neg = 0;
  for (const MultiQueryInfo& info : registered) {
    const std::size_t h = info.handle;
    const std::uint64_t pos = h < report.positive.size() ? report.positive[h] : 0;
    const std::uint64_t neg = h < report.negative.size() ? report.negative[h] : 0;
    const std::uint64_t deg = h < report.degraded.size() ? report.degraded[h] : 0;
    tot_pos += pos;
    tot_neg += neg;
    std::printf("[query %zu] %s (%s): +%llu / -%llu%s\n", h, info.file.c_str(),
                info.algorithm.c_str(), static_cast<unsigned long long>(pos),
                static_cast<unsigned long long>(neg),
                deg > 0 ? " (degraded)" : "");
  }
  const auto& mq = report.mq;
  std::printf("[multi] +%llu / -%llu total in %.3f ms wall; %llu processed, "
              "%llu deadline hit(s)\n",
              static_cast<unsigned long long>(tot_pos),
              static_cast<unsigned long long>(tot_neg),
              static_cast<double>(report.wall_ns) / 1e6,
              static_cast<unsigned long long>(report.stats.processed),
              static_cast<unsigned long long>(report.deadline_hits));
  std::printf("sharing: %llu/%llu verdicts by index, %llu grouped "
              "(%llu degree memo hits), %llu searches (+%llu fan-out, "
              "%llu anchor-skipped)\n",
              static_cast<unsigned long long>(mq.verdicts_by_index),
              static_cast<unsigned long long>(mq.verdicts_by_index +
                                              mq.verdicts_grouped),
              static_cast<unsigned long long>(mq.verdicts_grouped),
              static_cast<unsigned long long>(mq.group_hits),
              static_cast<unsigned long long>(mq.searches_run),
              static_cast<unsigned long long>(mq.searches_shared),
              static_cast<unsigned long long>(mq.searches_skipped));
  std::printf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
              static_cast<double>(lat.p50_ns) / 1e6,
              static_cast<double>(lat.p95_ns) / 1e6,
              static_cast<double>(lat.p99_ns) / 1e6,
              static_cast<double>(lat.max_ns) / 1e6);

  if (const std::string jpath = cli.get("report-json"); !jpath.empty())
    write_multi_json_report(jpath, report, registered, lat,
                            config.effective_threads(),
                            cli.get("policy").c_str());
  return 0;
}

void write_shard_json_report(const std::string& path,
                             const shard::CoordinatorReport& r,
                             const char* algorithm, std::uint32_t n_shards,
                             const std::string& fault_spec) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write --report-json '%s'\n",
                 path.c_str());
    return;
  }
  out << "{\n"
      << "  \"mode\": \"sharded\",\n"
      << "  \"algorithm\": \"" << algorithm << "\",\n"
      << "  \"shards\": " << n_shards << ",\n";
  out << "  \"fault_spec\": \"" << fault_spec << "\",\n"
      << "  \"processed\": " << r.processed << ",\n"
      << "  \"applied\": " << r.applied << ",\n"
      << "  \"positive\": " << r.positive << ",\n"
      << "  \"negative\": " << r.negative << ",\n"
      << "  \"matches_delivered\": " << r.matches_delivered << ",\n"
      << "  \"delta_checksum\": " << r.delta_checksum << ",\n"
      << "  \"restarts\": " << r.restarts << ",\n"
      << "  \"failovers\": " << r.failovers << ",\n"
      << "  \"deferred_replays\": " << r.deferred_replays << ",\n"
      << "  \"transport\": {\n"
      << "    \"frames_sent\": " << r.transport.frames_sent << ",\n"
      << "    \"frames_received\": " << r.transport.frames_received << ",\n"
      << "    \"retries\": " << r.transport.retries << ",\n"
      << "    \"timeouts\": " << r.transport.timeouts << ",\n"
      << "    \"checksum_drops\": " << r.transport.checksum_drops << ",\n"
      << "    \"torn_frames\": " << r.transport.torn_frames << ",\n"
      << "    \"peer_gone\": " << r.transport.peer_gone << ",\n"
      << "    \"stale_acks\": " << r.transport.stale_acks << "\n"
      << "  },\n"
      << "  \"faults_injected\": {\n"
      << "    \"dropped\": " << r.faults.dropped << ",\n"
      << "    \"duplicated\": " << r.faults.duplicated << ",\n"
      << "    \"corrupted\": " << r.faults.corrupted << ",\n"
      << "    \"delayed\": " << r.faults.delayed << "\n"
      << "  },\n"
      << "  \"shard_lanes\": [\n";
  for (std::size_t i = 0; i < r.shards.size(); ++i) {
    const shard::ShardLane& lane = r.shards[i];
    out << "    {\"shard\": " << lane.shard << ", \"owned\": " << lane.owned
        << ", \"restarts\": " << lane.restarts
        << ", \"permanently_dead\": " << (lane.permanently_dead ? "true" : "false")
        << ", \"wal_replayed\": " << lane.hello_replayed;
    if (lane.have_summary)
      out << ", \"processed\": " << lane.summary.processed
          << ", \"wal_records\": " << lane.summary.wal_records
          << ", \"wal_retries\": " << lane.summary.wal_retries
          << ", \"snapshots\": " << lane.summary.snapshots;
    out << "}" << (i + 1 < r.shards.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"error\": \"" << r.error << "\"\n"
      << "}\n";
}

/// --shards N: run the supervised multi-process mode (DESIGN.md §12). The
/// parent becomes coordinator + supervisor; each shard worker is a fork/exec
/// of paracosm_shard running the full service pipeline over its replica.
int run_sharded(const util::Cli& cli, const std::string& graph_path,
                const std::string& query_path, const graph::DataGraph& g,
                const graph::QueryGraph& q, csm::CsmAlgorithm& algorithm,
                const std::vector<graph::GraphUpdate>& stream) {
  shard::CoordinatorOptions copts;
  copts.sup.n_shards = static_cast<std::uint32_t>(cli.get_int("shards"));
  copts.sup.shard_binary = cli.get("shard-bin");
  copts.sup.graph_path = graph_path;
  copts.sup.query_path = query_path;
  copts.sup.algorithm = cli.get("algorithm");
  copts.sup.worker_threads = static_cast<unsigned>(cli.get_int("threads"));
  copts.sup.dir = cli.get("shard-dir");
  std::error_code dir_ec;
  std::filesystem::create_directories(copts.sup.dir, dir_ec);
  if (dir_ec) {
    std::fprintf(stderr, "error: cannot create --shard-dir %s: %s\n",
                 copts.sup.dir.c_str(), dir_ec.message().c_str());
    return 2;
  }
  copts.sup.snapshot_every =
      static_cast<std::uint64_t>(cli.get_int("snapshot-every"));
  copts.sup.budget_us = cli.get_int("budget-us");
  copts.sup.restart_budget = static_cast<int>(cli.get_int("restart-budget"));
  copts.sup.kill_shard = static_cast<int>(cli.get_int("kill-shard"));
  copts.sup.kill_at = cli.get_int("kill-at");
  if (!cli.get("metrics-out").empty()) {
    copts.sup.worker_metrics = true;
    copts.sup.metrics_every =
        static_cast<std::uint64_t>(cli.get_int("metrics-every"));
  }
  copts.policy.attempt_timeout_ms = cli.get_int("attempt-timeout-ms");
  const std::string fault_spec = cli.get("fault");
  if (!fault_spec.empty()) {
    try {
      copts.fault = shard::FaultPlan::parse(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad --fault spec: %s\n", e.what());
      return 2;
    }
  }

  std::printf("serving %zu update(s) across %u shard(s) [%s x%u%s%s]\n",
              stream.size(), copts.sup.n_shards, copts.sup.algorithm.c_str(),
              copts.sup.worker_threads,
              copts.sup.kill_at >= 0 ? ", kill fault armed" : "",
              copts.fault.any() ? ", transport faults armed" : "");

  shard::Coordinator coord(copts);
  if (!coord.start()) {
    std::fprintf(stderr, "error: %s\n", coord.error().c_str());
    return 1;
  }
  for (const graph::GraphUpdate& upd : stream) {
    if (g_stop) {
      std::printf("signal received: draining and shutting shards down\n");
      break;
    }
    if (!coord.process(upd)) break;
  }
  const shard::CoordinatorReport report = coord.finish();

  std::printf("[sharded %s] +%llu / -%llu matches, %llu mapping(s) delivered, "
              "delta checksum %016llx\n",
              copts.sup.algorithm.c_str(),
              static_cast<unsigned long long>(report.positive),
              static_cast<unsigned long long>(report.negative),
              static_cast<unsigned long long>(report.matches_delivered),
              static_cast<unsigned long long>(report.delta_checksum));
  std::printf("supervision: %llu restart(s), %llu failover(s), %llu deferred "
              "replay(s) — delayed, never dropped\n",
              static_cast<unsigned long long>(report.restarts),
              static_cast<unsigned long long>(report.failovers),
              static_cast<unsigned long long>(report.deferred_replays));
  std::printf("transport: %llu sent / %llu received, %llu retries, %llu "
              "timeouts, %llu checksum drops, %llu torn, %llu peer-gone\n",
              static_cast<unsigned long long>(report.transport.frames_sent),
              static_cast<unsigned long long>(report.transport.frames_received),
              static_cast<unsigned long long>(report.transport.retries),
              static_cast<unsigned long long>(report.transport.timeouts),
              static_cast<unsigned long long>(report.transport.checksum_drops),
              static_cast<unsigned long long>(report.transport.torn_frames),
              static_cast<unsigned long long>(report.transport.peer_gone));
  for (const shard::ShardLane& lane : report.shards)
    std::printf("[shard %u] owned %llu, %d restart(s)%s%s\n", lane.shard,
                static_cast<unsigned long long>(lane.owned), lane.restarts,
                lane.hello_replayed > 0 ? " (WAL replayed on respawn)" : "",
                lane.permanently_dead ? ", PERMANENTLY DEAD" : "");

  if (const std::string jpath = cli.get("report-json"); !jpath.empty())
    write_shard_json_report(jpath, report, copts.sup.algorithm.c_str(),
                            copts.sup.n_shards, fault_spec);

  if (!report.error.empty()) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 1;
  }

  if (cli.get_bool("verify-final")) {
    // The differential gate: one single-process engine run over the same
    // prefix must produce the identical merged ΔM stream.
    engine::Config config;
    config.threads = static_cast<unsigned>(cli.get_int("threads"));
    config.inter_parallelism = false;
    graph::DataGraph og = g;
    engine::ParaCosm oracle(algorithm, q, og, config);
    std::vector<csm::Assignment> buf;
    oracle.set_match_callback([&buf](std::span<const csm::Assignment> m) {
      buf.insert(buf.end(), m.begin(), m.end());
    });
    std::uint64_t h = util::kFnv1aOffset;
    std::uint64_t pos = 0, neg = 0;
    for (std::uint64_t seq = 0; seq < report.processed; ++seq) {
      buf.clear();
      const csm::UpdateOutcome out = oracle.process(stream[seq]);
      pos += out.positive;
      neg += out.negative;
      h = shard::fold_delta(h, seq, out.positive, out.negative, buf);
    }
    if (h != report.delta_checksum || pos != report.positive ||
        neg != report.negative) {
      std::fprintf(stderr,
                   "VERIFY FAIL: sharded ΔM diverges from the single-process "
                   "oracle (got +%llu/-%llu cksum %016llx, oracle "
                   "+%llu/-%llu cksum %016llx)\n",
                   static_cast<unsigned long long>(report.positive),
                   static_cast<unsigned long long>(report.negative),
                   static_cast<unsigned long long>(report.delta_checksum),
                   static_cast<unsigned long long>(pos),
                   static_cast<unsigned long long>(neg),
                   static_cast<unsigned long long>(h));
      return 1;
    }
    std::printf("verify-final: OK (sharded ΔM byte-identical to the "
                "single-process oracle)\n");
  }
  return 0;
}

void write_json_report(const std::string& path, const service::ServiceReport& r,
                       const bench::LatencySummary& lat, const char* algorithm,
                       unsigned threads, const char* policy) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write --report-json '%s'\n",
                 path.c_str());
    return;
  }
  const auto& s = r.stats;
  out << "{\n"
      << "  \"algorithm\": \"" << algorithm << "\",\n"
      << "  \"threads\": " << threads << ",\n";
  out << "  \"policy\": \"" << policy << "\",\n"
      << "  \"positive\": " << r.positive << ",\n"
      << "  \"negative\": " << r.negative << ",\n"
      << "  \"wall_ns\": " << r.wall_ns << ",\n"
      << "  \"processed\": " << s.processed << ",\n"
      << "  \"degraded_searches\": " << s.degraded_searches << ",\n"
      << "  \"watchdog_cancels\": " << s.watchdog_cancels << ",\n"
      << "  \"deferred_retries\": " << s.deferred_retries << ",\n"
      << "  \"replayed_updates\": " << s.replayed_updates << ",\n"
      << "  \"noop_skipped\": " << s.noop_skipped << ",\n"
      << "  \"snapshots\": " << s.snapshots << ",\n"
      << "  \"wal_records\": " << s.wal_records << ",\n"
      << "  \"ingest\": {\n"
      << "    \"enqueued\": " << s.ingest.enqueued << ",\n"
      << "    \"shed\": " << s.ingest.shed << ",\n"
      << "    \"degraded\": " << s.ingest.degraded << ",\n"
      << "    \"blocked_pushes\": " << s.ingest.blocked_pushes << ",\n"
      << "    \"blocked_ns\": " << s.ingest.blocked_ns << ",\n"
      << "    \"high_water\": " << s.ingest.high_water << "\n"
      << "  },\n"
      << "  \"latency_ns\": {\n"
      << "    \"count\": " << lat.count << ",\n"
      << "    \"mean\": " << static_cast<std::int64_t>(lat.mean_ns) << ",\n"
      << "    \"p50\": " << lat.p50_ns << ",\n"
      << "    \"p95\": " << lat.p95_ns << ",\n"
      << "    \"p99\": " << lat.p99_ns << ",\n"
      << "    \"p999\": " << lat.p999_ns << ",\n"
      << "    \"max\": " << lat.max_ns << "\n"
      << "  }\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("paracosm_serve",
                "run the CSM service layer: bounded ingest, deadlines, "
                "WAL + snapshot durability, crash recovery");
  cli.option("graph", "", "data graph file (required)")
      .option("query", "", "query graph file (required)")
      .option("stream", "", "update stream file (required)")
      .option("algorithm", "graphflow", "graphflow|turboflux|symbi|calig|newsp")
      .option("threads", "8", "worker threads for the search phase (0 = one per "
              "CPU in the process affinity mask)")
      .flag("pin", "pin workers to CPUs (distinct cores first; no-op without sysfs)")
      .option("policy", "block", "overload policy: block|shed|degrade")
      .option("queue", "1024", "ingest ring capacity")
      .option("budget-us", "0", "per-update search budget (0 = no deadline)")
      .option("wal", "", "write-ahead log path (empty = durability off)")
      .option("snapshot", "", "snapshot path (empty = snapshots off)")
      .option("snapshot-every", "0", "updates between snapshots (0 = never)")
      .option("shards", "0",
              "run sharded: supervise N paracosm_shard worker processes "
              "(0 = single-process mode)")
      .option("shard-dir", ".",
              "--shards: directory for per-shard WAL/snapshot/metrics files")
      .option("shard-bin", "",
              "--shards: worker binary (default: $PARACOSM_SHARD_BIN, else "
              "next to this executable)")
      .option("fault", "",
              "--shards: transport fault spec "
              "\"seed=N,drop=R,dup=R,corrupt=R,delay=R:US\"")
      .option("kill-shard", "-1",
              "--shards: arm --kill-at inside this shard's first incarnation")
      .option("restart-budget", "3",
              "--shards: restarts per shard before it is permanently dead")
      .option("attempt-timeout-ms", "1000",
              "--shards: per-attempt transport response deadline")
      .option("kill-at", "-1",
              "fault: _exit(137) after WAL record N is durable, before apply")
      .option("timeout-rate", "0",
              "fault: force this fraction of searches over budget")
      .option("slow-consumer-us", "0", "fault: per-update consumer delay")
      .option("seed", "42", "seed for the --timeout-rate selection")
      .option("report-json", "", "write the final report as JSON here")
      .option("trace-out", "",
              "write a Chrome/Perfetto trace of the run here (enables tracing)")
      .option("metrics-out", "",
              "write a flat metrics snapshot here (.csv or JSON by extension)")
      .option("metrics-every", "0",
              "flush --metrics-out every N processed updates (0 = final only)")
      .option("queries", "",
              "--multi: CSV of query graph files to register as the catalogue")
      .option("algorithms", "",
              "--multi: CSV of algorithms, cycled over --queries")
      .option("query-budget-us", "0",
              "--multi: per-query per-update search budget (0 = none)")
      .option("add-at", "",
              "--multi: CSV of N:file:alg clauses — register file with alg "
              "after stream position N")
      .option("remove-at", "",
              "--multi: CSV of N:handle clauses — deregister handle after "
              "stream position N")
      .flag("multi",
            "serve a catalogue of standing queries through the shared "
            "multi-query engine (--queries/--algorithms)")
      .flag("no-sharing",
            "--multi: give every query a private evaluation class (the "
            "O(queries) baseline)")
      .flag("trace-verbose",
            "trace at level 2: per-search-node instants (huge traces)")
      .flag("recover", "recover from --wal/--snapshot, then resume the stream")
      .flag("verify-final", "cross-check the end state against the oracle")
      .flag("strict", "abort on the first malformed input line");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const bool multi = cli.get_bool("multi");
  const std::string graph_path = cli.get("graph");
  const std::string query_path = cli.get("query");
  const std::string stream_path = cli.get("stream");
  if (graph_path.empty() || stream_path.empty() ||
      (query_path.empty() && !multi)) {
    std::fprintf(stderr, "error: --graph, --query and --stream are required\n");
    return 2;
  }
  auto algorithm = csm::make_algorithm(cli.get("algorithm"));
  if (!algorithm) {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                 cli.get("algorithm").c_str());
    return 2;
  }
  service::ServiceOptions sopts;
  if (!parse_policy(cli.get("policy"), sopts.policy)) {
    std::fprintf(stderr, "error: unknown policy '%s'\n", cli.get("policy").c_str());
    return 2;
  }

  const bool strict = cli.get_bool("strict");
  std::vector<graph::ParseError> errors;
  auto* collector = strict ? nullptr : &errors;
  graph::DataGraph g;
  graph::QueryGraph q;
  std::vector<graph::GraphUpdate> stream;
  try {
    g = graph::load_data_graph_file(graph_path, collector);
    if (!query_path.empty()) q = graph::load_query_graph_file(query_path, collector);
    stream = graph::load_update_stream_file(stream_path, collector);
  } catch (const graph::ParseException& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const graph::ParseError& e : errors)
    std::fprintf(stderr, "warning: skipped %s\n", e.to_string().c_str());

  // Graceful shutdown in every mode: drain, flush durability, exit 0.
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);

  if (cli.get_int("shards") > 0) {
    if (multi) {
      std::fprintf(stderr, "error: --shards and --multi are exclusive\n");
      return 2;
    }
    if (cli.get_int("shards") == 1)
      std::fprintf(stderr,
                   "warning: --shards 1 supervises a single worker — valid, "
                   "but there is no one to fail over to\n");
    return run_sharded(cli, graph_path, query_path, g, q, *algorithm, stream);
  }

  sopts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  sopts.budget_us = cli.get_int("budget-us");
  sopts.wal_path = cli.get("wal");
  sopts.snapshot_path = cli.get("snapshot");
  sopts.snapshot_every = static_cast<std::uint64_t>(cli.get_int("snapshot-every"));
  // A final snapshot on clean exit (including SIGTERM drain) makes the next
  // --recover replay only the post-snapshot suffix.
  sopts.snapshot_on_finish = !sopts.snapshot_path.empty();
  sopts.record_applied_order = cli.get_bool("verify-final");
  sopts.metrics_path = cli.get("metrics-out");
  sopts.metrics_every = static_cast<std::uint64_t>(cli.get_int("metrics-every"));

  // Tracing must be on before the engine spawns its workers so every lane is
  // named; level 2 adds per-search-node instants.
  const std::string trace_path = cli.get("trace-out");
  if (!trace_path.empty()) {
    PARACOSM_TRACE_THREAD_NAME("main");
    obs::set_trace_level(cli.get_bool("trace-verbose") ? 2 : 1);
#if !defined(PARACOSM_TRACE_ENABLED)
    std::fprintf(stderr,
                 "warning: built with PARACOSM_TRACE=OFF — the trace will "
                 "contain no engine events\n");
#endif
  }

  if (multi) {
    const int rc = run_multi(cli, g, stream, collector);
    if (!trace_path.empty()) {
      obs::set_trace_level(0);
      try {
        obs::write_chrome_trace(trace_path,
                                obs::TraceRegistry::instance().collect());
        std::printf("trace: wrote %s (load in ui.perfetto.dev)\n",
                    trace_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: %s\n", e.what());
      }
    }
    return rc;
  }

  // The initial graph doubles as the recovery base; keep it when verifying.
  const bool verify_final = cli.get_bool("verify-final");
  graph::DataGraph base;
  if (verify_final) base = g;

  std::uint64_t replayed = 0;
  std::size_t resume_at = 0;
  if (cli.get_bool("recover")) {
    if (sopts.wal_path.empty()) {
      std::fprintf(stderr, "error: --recover requires --wal\n");
      return 2;
    }
    service::RecoveredState rec =
        service::recover_state(g, sopts.wal_path, sopts.snapshot_path);
    std::printf("recovery: %llu WAL record(s) replayed%s%s, resuming at seq %llu\n",
                static_cast<unsigned long long>(rec.replayed),
                rec.used_snapshot ? " on top of snapshot" : "",
                rec.torn_tail_truncated ? " (torn tail truncated)" : "",
                static_cast<unsigned long long>(rec.next_seq));
    if (sopts.policy == service::OverloadPolicy::kShed)
      std::fprintf(stderr,
                   "warning: --recover assumes in-order processing; the shed "
                   "policy reorders and is not replay-safe\n");
    replayed = rec.replayed;
    resume_at = static_cast<std::size_t>(rec.next_seq);
    if (verify_final) base = rec.graph;
    g = std::move(rec.graph);
    sopts.wal_resume = true;
    sopts.wal_next_seq = rec.next_seq;
  }
  if (resume_at > stream.size()) resume_at = stream.size();

  service::FaultHooks hooks;
  const std::int64_t kill_at = cli.get_int("kill-at");
  if (kill_at >= 0) {
    hooks.after_wal_append = [kill_at](std::uint64_t seq) {
      if (seq == static_cast<std::uint64_t>(kill_at)) {
        std::fprintf(stderr, "[fault] record %lld durable, crashing now\n",
                     static_cast<long long>(kill_at));
        std::_Exit(137);
      }
    };
  }
  if (const double rate = cli.get_double("timeout-rate"); rate > 0) {
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    hooks.force_timeout = [rate, seed](std::uint64_t seq) {
      std::uint64_t h = seq ^ seed;
      return static_cast<double>(util::splitmix64(h) >> 11) * 0x1.0p-53 < rate;
    };
  }
  if (const std::int64_t us = cli.get_int("slow-consumer-us"); us > 0) {
    hooks.slow_consumer = [us] {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    };
  }

  engine::Config config;
  config.threads = static_cast<unsigned>(cli.get_int("threads"));
  config.pin_threads = cli.get_bool("pin");
  config.inter_parallelism = false;  // the service processes one update at a time
  engine::ParaCosm pc(*algorithm, q, g, config);

  std::printf("serving %zu update(s) [%s x%u, policy %s, queue %zu%s%s]\n",
              stream.size() - resume_at, cli.get("algorithm").c_str(),
              config.effective_threads(), cli.get("policy").c_str(),
              sopts.queue_capacity, sopts.budget_us > 0 ? ", deadline on" : "",
              sopts.wal_path.empty() ? "" : ", WAL on");

  bool interrupted = false;
  service::ServiceReport report;
  {
    service::StreamService svc(pc, sopts, hooks);
    for (std::size_t i = resume_at; i < stream.size(); ++i) {
      if (g_stop) {
        interrupted = true;
        break;
      }
      (void)svc.submit(stream[i]);
    }
    // finish() drains everything already enqueued and flushes WAL + final
    // snapshot + metrics — the graceful-shutdown contract for SIGTERM too.
    report = svc.finish();
  }
  report.stats.replayed_updates = replayed;
  if (interrupted)
    std::printf("signal received: drained %llu update(s), durability flushed\n",
                static_cast<unsigned long long>(report.stats.processed));

  if (!report.error.empty()) {
    std::fprintf(stderr, "error: service consumer failed: %s\n",
                 report.error.c_str());
    return 1;
  }

  if (!trace_path.empty()) {
    obs::set_trace_level(0);
    try {
      obs::write_chrome_trace(trace_path,
                              obs::TraceRegistry::instance().collect());
      std::printf("trace: wrote %s (load in ui.perfetto.dev)\n",
                  trace_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }

  const bench::LatencySummary lat = bench::summarize_histogram(report.latency);
  const auto& s = report.stats;
  std::printf("[service %s] +%llu / -%llu matches in %.3f ms wall\n",
              cli.get("algorithm").c_str(),
              static_cast<unsigned long long>(report.positive),
              static_cast<unsigned long long>(report.negative),
              static_cast<double>(report.wall_ns) / 1e6);
  std::printf("updates: %llu processed, %llu degraded, %llu watchdog cancels, "
              "%llu deferred retries, %llu no-op skips, %llu replayed\n",
              static_cast<unsigned long long>(s.processed),
              static_cast<unsigned long long>(s.degraded_searches),
              static_cast<unsigned long long>(s.watchdog_cancels),
              static_cast<unsigned long long>(s.deferred_retries),
              static_cast<unsigned long long>(s.noop_skipped),
              static_cast<unsigned long long>(s.replayed_updates));
  std::printf("ingest: %llu enqueued, %llu shed, %llu degraded, high water %llu, "
              "%llu blocked push(es) (%.3f ms)\n",
              static_cast<unsigned long long>(s.ingest.enqueued),
              static_cast<unsigned long long>(s.ingest.shed),
              static_cast<unsigned long long>(s.ingest.degraded),
              static_cast<unsigned long long>(s.ingest.high_water),
              static_cast<unsigned long long>(s.ingest.blocked_pushes),
              static_cast<double>(s.ingest.blocked_ns) / 1e6);
  std::printf("durability: %llu WAL record(s), %llu snapshot(s)\n",
              static_cast<unsigned long long>(s.wal_records),
              static_cast<unsigned long long>(s.snapshots));
  std::printf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, p99.9 %.3f ms, "
              "max %.3f ms\n",
              static_cast<double>(lat.p50_ns) / 1e6,
              static_cast<double>(lat.p95_ns) / 1e6,
              static_cast<double>(lat.p99_ns) / 1e6,
              static_cast<double>(lat.p999_ns) / 1e6,
              static_cast<double>(lat.max_ns) / 1e6);

  if (const std::string jpath = cli.get("report-json"); !jpath.empty())
    write_json_report(jpath, report, lat, cli.get("algorithm").c_str(),
                      config.effective_threads(), cli.get("policy").c_str());

  if (verify_final) {
    // Replay the *effective* applied order through the recompute oracle from
    // the run's base state; state must match exactly, counts must match
    // unless searches were deliberately degraded.
    const verify::OracleTrace trace = verify::build_trace(
        q, base, report.applied_order, algorithm->uses_edge_labels(),
        /*strict=*/false);
    const bool degraded_run = s.degraded_searches > 0;
    bool ok = pc.graph().same_structure(trace.final_graph);
    if (ok && !degraded_run)
      ok = report.positive == trace.total_positive &&
           report.negative == trace.total_negative;
    if (ok && degraded_run)
      ok = report.positive <= trace.total_positive &&
           report.negative <= trace.total_negative;
    if (!ok) {
      std::fprintf(stderr,
                   "VERIFY FAIL: end state diverges from the oracle "
                   "(got +%llu/-%llu, oracle +%llu/-%llu)\n",
                   static_cast<unsigned long long>(report.positive),
                   static_cast<unsigned long long>(report.negative),
                   static_cast<unsigned long long>(trace.total_positive),
                   static_cast<unsigned long long>(trace.total_negative));
      return 1;
    }
    std::printf("verify-final: OK (oracle-exact%s)\n",
                degraded_run ? " modulo degraded searches" : "");
  }
  return 0;
}
