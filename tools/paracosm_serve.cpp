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
// One service serves a query catalogue: --query takes a comma-separated list
// (one entry is a catalogue of one), --algorithm cycles over it, and
// --add-at / --remove-at change the catalogue at stream positions.
//
// Crash drill (the CI smoke job): run once with --kill-at N — the process
// _exits(137) just before update N is applied, with the whole WAL run that
// holds record N durable and updates N onward unapplied — then run
// again with --recover; the service replays the WAL suffix, rebuilds the
// catalogue from the command line (the initial queries, then every --add-at /
// --remove-at at or before the resume point, in order) and finishes the
// stream. --verify-final cross-checks the end state, and every handle's ΔM
// over the window it was registered for, against the recompute oracle. Fault
// injection (--kill-at, --timeout-rate, --slow-consumer-us) exists so
// resilience is testable, not just claimed.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/reporting.hpp"
#include "graph/graph_io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/multi_query.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "verify/oracle_mirror.hpp"

using namespace paracosm;

namespace {

/// SIGTERM/SIGINT request a graceful stop: the submit loop breaks, the
/// service drains what was already enqueued, flushes WAL + final snapshot +
/// metrics/trace, and the process exits 0.
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
/// position (every admin op is a barrier, so the boundary is exact).
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

/// One registration of the served catalogue and the window of the applied
/// order it was registered for: [from, to), as indices into
/// ServiceReport::applied_order.
struct Registration {
  std::size_t handle = 0;
  std::string file;
  std::string algorithm;
  graph::QueryGraph query;
  std::size_t from = 0;
  std::size_t to = std::numeric_limits<std::size_t>::max();
};

void write_json_report(const std::string& path, const service::ServiceReport& r,
                       const bench::LatencySummary& lat,
                       const std::vector<Registration>& regs,
                       const char* algorithm, unsigned threads, const char* policy) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write --report-json '%s'\n",
                 path.c_str());
    return;
  }
  const auto& s = r.stats;
  const auto& mq = r.mq;
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
      << "  \"wal_flushes\": " << s.wal_flushes << ",\n"
      << "  \"queries\": [\n";
  // Counts are per handle: a reused handle sums its registrations.
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const std::size_t h = regs[i].handle;
    out << "    {\"handle\": " << h << ", \"file\": \"" << regs[i].file
        << "\", \"algorithm\": \"" << regs[i].algorithm
        << "\", \"positive\": " << r.handle_positive[h]
        << ", \"negative\": " << r.handle_negative[h]
        << ", \"degraded\": " << r.handle_degraded[h] << "}"
        << (i + 1 < regs.size() ? "," : "") << "\n";
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
      << "    \"degraded\": " << s.ingest.degraded << ",\n"
      << "    \"blocked_pushes\": " << s.ingest.blocked_pushes << ",\n"
      << "    \"blocked_ns\": " << s.ingest.blocked_ns << ",\n"
      << "    \"high_water\": " << s.ingest.high_water << ",\n"
      << "    \"parks\": " << s.ingest.parks << "\n"
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

/// --verify-final: the end graph must equal the base with the applied order
/// replayed, and each handle's ΔM the oracle's over the windows it was
/// registered for (a reused handle sums its registrations). A run with
/// degraded searches may only lose matches, never invent them.
bool verify_final_state(const service::ServiceReport& report,
                        const graph::DataGraph& base, const graph::DataGraph& end,
                        const std::vector<Registration>& regs) {
  const std::vector<graph::GraphUpdate>& applied = report.applied_order;
  graph::DataGraph expect = base;
  for (const graph::GraphUpdate& upd : applied) expect.apply(upd);
  if (!end.same_structure(expect)) {
    std::fprintf(stderr, "VERIFY FAIL: end graph diverges from the oracle\n");
    return false;
  }
  std::vector<std::uint64_t> want_pos(report.handle_positive.size(), 0);
  std::vector<std::uint64_t> want_neg(want_pos.size(), 0);
  for (const Registration& reg : regs) {
    const std::size_t to = std::min(reg.to, applied.size());
    const std::size_t from = std::min(reg.from, to);
    graph::DataGraph start = base;
    for (std::size_t i = 0; i < from; ++i) start.apply(applied[i]);
    const verify::OracleTrace trace = verify::build_trace(
        reg.query, start, std::span(applied).subspan(from, to - from),
        csm::make_algorithm(reg.algorithm)->uses_edge_labels(), /*strict=*/false);
    want_pos[reg.handle] += trace.total_positive;
    want_neg[reg.handle] += trace.total_negative;
  }
  bool degraded_run = report.stats.degraded_searches > 0;
  for (const std::uint64_t d : report.handle_degraded) degraded_run |= d > 0;
  bool ok = true;
  for (std::size_t h = 0; h < want_pos.size(); ++h) {
    const std::uint64_t pos = report.handle_positive[h];
    const std::uint64_t neg = report.handle_negative[h];
    const bool good = degraded_run ? pos <= want_pos[h] && neg <= want_neg[h]
                                   : pos == want_pos[h] && neg == want_neg[h];
    if (good) continue;
    ok = false;
    std::fprintf(stderr,
                 "VERIFY FAIL: handle %zu diverges from the oracle (got "
                 "+%llu/-%llu, oracle +%llu/-%llu)\n",
                 h, static_cast<unsigned long long>(pos),
                 static_cast<unsigned long long>(neg),
                 static_cast<unsigned long long>(want_pos[h]),
                 static_cast<unsigned long long>(want_neg[h]));
  }
  if (ok)
    std::printf("verify-final: OK (oracle-exact%s)\n",
                degraded_run ? " modulo degraded searches" : "");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("paracosm_serve",
                "run the CSM service layer: bounded ingest, deadlines, "
                "WAL + snapshot durability, crash recovery");
  cli.option("graph", "", "data graph file (required)")
      .option("query", "",
              "query graph file, or a comma-separated catalogue of them "
              "(required)")
      .option("stream", "", "update stream file (required)")
      .option("algorithm", "graphflow",
              "graphflow|turboflux|symbi|calig|newsp; a comma-separated list "
              "cycles over --query")
      .option("threads", "8", "worker threads for the search phase (0 = one per "
              "CPU in the process affinity mask)")
      .flag("pin", "pin workers to CPUs (distinct cores first; no-op without sysfs)")
      .option("policy", "block", "overload policy: block|shed|degrade")
      .option("queue", "1024", "ingest ring capacity")
      .option("budget-us", "0", "per-update search budget (0 = no deadline)")
      .option("query-budget-us", "0",
              "per-query per-update search budget (0 = none)")
      .option("add-at", "",
              "CSV of N:file:alg clauses — register file with alg after "
              "stream position N")
      .option("remove-at", "",
              "CSV of N:handle clauses — deregister handle after stream "
              "position N")
      .option("wal", "", "write-ahead log path (empty = durability off)")
      .option("snapshot", "", "snapshot path (empty = snapshots off)")
      .option("snapshot-every", "0", "updates between snapshots (0 = never)")
      .option("kill-at", "-1",
              "fault: _exit(137) once the WAL run holding record N is "
              "durable, before update N is applied")
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
      .flag("trace-verbose",
            "trace at level 2: per-search-node instants (huge traces)")
      .flag("recover", "recover from --wal/--snapshot, then resume the stream")
      .flag("verify-final", "cross-check the end state against the oracle")
      .flag("strict", "abort on the first malformed input line");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const std::string graph_path = cli.get("graph");
  const std::string stream_path = cli.get("stream");
  const std::vector<std::string> query_files = split_csv(cli.get("query"));
  const std::vector<std::string> algorithms = split_csv(cli.get("algorithm"));
  if (graph_path.empty() || stream_path.empty() || query_files.empty()) {
    std::fprintf(stderr, "error: --graph, --query and --stream are required\n");
    return 2;
  }
  if (algorithms.empty()) {
    std::fprintf(stderr, "error: --algorithm is empty\n");
    return 2;
  }
  service::ServiceOptions sopts;
  if (!parse_policy(cli.get("policy"), sopts.policy)) {
    std::fprintf(stderr, "error: unknown policy '%s'\n", cli.get("policy").c_str());
    return 2;
  }
  std::vector<AdminEvent> admin;
  if (!parse_admin_events(cli.get("add-at"), cli.get("remove-at"), admin)) {
    std::fprintf(stderr,
                 "error: bad --add-at/--remove-at clause (want N:file:alg / "
                 "N:handle)\n");
    return 2;
  }

  const bool strict = cli.get_bool("strict");
  std::vector<graph::ParseError> errors;
  auto* collector = strict ? nullptr : &errors;
  graph::DataGraph g;
  std::vector<Registration> regs;
  std::vector<graph::GraphUpdate> stream;
  try {
    g = graph::load_data_graph_file(graph_path, collector);
    for (std::size_t i = 0; i < query_files.size(); ++i) {
      Registration reg;
      reg.file = query_files[i];
      reg.algorithm = algorithms[i % algorithms.size()];
      reg.query = graph::load_query_graph_file(reg.file, collector);
      regs.push_back(std::move(reg));
    }
    stream = graph::load_update_stream_file(stream_path, collector);
  } catch (const graph::ParseException& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const graph::ParseError& e : errors)
    std::fprintf(stderr, "warning: skipped %s\n", e.to_string().c_str());

  // Graceful shutdown: drain, flush durability, exit 0.
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);

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
    service::RecoveredState rec;
    try {
      rec = service::recover_state(g, sopts.wal_path, sopts.snapshot_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
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
  engine::MultiQueryEngine engine(g, config);
  engine::QueryOptions qopts;
  qopts.budget_us = cli.get_int("query-budget-us");
  try {
    for (Registration& reg : regs)
      reg.handle = engine.add_query(reg.algorithm, reg.query, qopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("serving %zu update(s) to %zu quer(ies) in %zu class(es) [%s x%u, "
              "policy %s, queue %zu%s%s]\n",
              stream.size() - resume_at, engine.num_queries(),
              engine.num_classes(), cli.get("algorithm").c_str(),
              config.effective_threads(), cli.get("policy").c_str(),
              sopts.queue_capacity, sopts.budget_us > 0 ? ", deadline on" : "",
              sopts.wal_path.empty() ? "" : ", WAL on");

  bool interrupted = false;
  std::string admin_error;
  service::ServiceReport report;
  // Start-up and shutdown I/O (opening the WAL, the final snapshot and
  // metrics) throws; the consumer's own failures land in report.error.
  try {
    service::StreamService svc(engine, sopts, hooks);
    std::size_t next_admin = 0;
    for (std::size_t i = resume_at; i <= stream.size(); ++i) {
      if (g_stop) {
        interrupted = true;
        break;
      }
      // Catalogue changes at their stream positions. On --recover every
      // change at or before the resume point runs first, in order: that
      // rebuilds the catalogue, handles included (the free list is
      // deterministic).
      while (next_admin < admin.size() && admin[next_admin].at <= i) {
        const AdminEvent& ev = admin[next_admin++];
        // Updates applied before this op: every op is a barrier, so exact.
        const std::size_t pos = i - resume_at;
        try {
          if (ev.add) {
            Registration reg;
            reg.file = ev.query_file;
            reg.algorithm = ev.algorithm;
            reg.query = graph::load_query_graph_file(ev.query_file, collector);
            reg.handle = svc.add_query(ev.algorithm, reg.query, qopts);
            reg.from = pos;
            std::printf("[admin @%zu] added %s (%s) -> handle %zu\n", ev.at,
                        ev.query_file.c_str(), ev.algorithm.c_str(), reg.handle);
            regs.push_back(std::move(reg));
          } else {
            const bool ok = svc.remove_query(ev.handle);
            for (Registration& reg : regs)
              if (ok && reg.handle == ev.handle && reg.to > pos) reg.to = pos;
            std::printf("[admin @%zu] removed handle %zu%s\n", ev.at, ev.handle,
                        ok ? "" : " (stale)");
          }
        } catch (const std::exception& e) {
          admin_error = e.what();  // reported after finish(), below
          break;
        }
      }
      if (!admin_error.empty()) break;
      if (i < stream.size()) (void)svc.submit(stream[i]);
    }
    // finish() drains everything already enqueued and flushes WAL + final
    // snapshot + metrics — the graceful-shutdown contract for SIGTERM too.
    report = svc.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  report.stats.replayed_updates = replayed;
  if (interrupted)
    std::printf("signal received: drained %llu update(s), durability flushed\n",
                static_cast<unsigned long long>(report.stats.processed));

  // A failed consumer also fails the admin op that was waiting on it.
  if (!report.error.empty()) {
    std::fprintf(stderr, "error: service consumer failed: %s\n",
                 report.error.c_str());
    return 1;
  }
  if (!admin_error.empty()) {
    std::fprintf(stderr, "error: admin event failed: %s\n", admin_error.c_str());
    return 2;
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
  const auto& mq = report.mq;
  std::printf("[service %s] +%llu / -%llu matches in %.3f ms wall\n",
              cli.get("algorithm").c_str(),
              static_cast<unsigned long long>(report.positive),
              static_cast<unsigned long long>(report.negative),
              static_cast<double>(report.wall_ns) / 1e6);
  for (const Registration& reg : regs) {
    const std::size_t h = reg.handle;
    std::printf("[query %zu] %s (%s): +%llu / -%llu%s\n", h, reg.file.c_str(),
                reg.algorithm.c_str(),
                static_cast<unsigned long long>(report.handle_positive[h]),
                static_cast<unsigned long long>(report.handle_negative[h]),
                report.handle_degraded[h] > 0 ? " (degraded)" : "");
  }
  std::printf("updates: %llu processed, %llu degraded, %llu watchdog cancels, "
              "%llu deferred retries, %llu no-op skips, %llu replayed\n",
              static_cast<unsigned long long>(s.processed),
              static_cast<unsigned long long>(s.degraded_searches),
              static_cast<unsigned long long>(s.watchdog_cancels),
              static_cast<unsigned long long>(s.deferred_retries),
              static_cast<unsigned long long>(s.noop_skipped),
              static_cast<unsigned long long>(s.replayed_updates));
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
  std::printf("ingest: %llu enqueued, %llu shed, %llu degraded, high water %llu, "
              "%llu blocked push(es) (%.3f ms), %llu consumer park(s)\n",
              static_cast<unsigned long long>(s.ingest.enqueued),
              static_cast<unsigned long long>(s.ingest.shed),
              static_cast<unsigned long long>(s.ingest.degraded),
              static_cast<unsigned long long>(s.ingest.high_water),
              static_cast<unsigned long long>(s.ingest.blocked_pushes),
              static_cast<double>(s.ingest.blocked_ns) / 1e6,
              static_cast<unsigned long long>(s.ingest.parks));
  std::printf("durability: %llu WAL record(s) in %llu flush(es), %llu "
              "snapshot(s)\n",
              static_cast<unsigned long long>(s.wal_records),
              static_cast<unsigned long long>(s.wal_flushes),
              static_cast<unsigned long long>(s.snapshots));
  std::printf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, p99.9 %.3f ms, "
              "max %.3f ms\n",
              static_cast<double>(lat.p50_ns) / 1e6,
              static_cast<double>(lat.p95_ns) / 1e6,
              static_cast<double>(lat.p99_ns) / 1e6,
              static_cast<double>(lat.p999_ns) / 1e6,
              static_cast<double>(lat.max_ns) / 1e6);

  if (const std::string jpath = cli.get("report-json"); !jpath.empty())
    write_json_report(jpath, report, lat, regs, cli.get("algorithm").c_str(),
                      config.effective_threads(), cli.get("policy").c_str());

  if (verify_final && !verify_final_state(report, base, engine.graph(), regs))
    return 1;
  return 0;
}
