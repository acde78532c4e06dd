// Ablation of the inner-update scheduling strategy (Config::scheduler,
// DESIGN.md §4): static seed partitioning vs the paper's central concurrent
// queue with idle-triggered re-splitting (Algorithm 2) vs work stealing on
// the same queue. Identical updates, identical traversal code — only the
// scheduler differs, so the `matches` column must agree across arms.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "paracosm/inner_executor.hpp"

using namespace paracosm;
using namespace paracosm::bench;

namespace {

struct SchedulerTotals {
  std::int64_t makespan_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t matches = 0;
  std::uint64_t steals_ok = 0;
  std::uint64_t offloads = 0;
  std::uint64_t parks = 0;
};

template <typename Runner>
SchedulerTotals drive(const Workload& wl, const graph::QueryGraph& q, Runner&& run) {
  SchedulerTotals totals;
  auto alg = csm::make_algorithm("graphflow");
  graph::DataGraph g = wl.graph;
  alg->attach(q, g);
  for (const auto& upd : wl.stream) {
    if (!upd.is_edge_op()) continue;
    if (!g.add_edge(upd.u, upd.v, upd.label)) continue;
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    const engine::InnerRunResult r = run(*alg, std::move(seeds));
    totals.makespan_ns += r.stats.simulated_makespan_ns();
    totals.cpu_ns += r.stats.sequential_equivalent_ns();
    totals.matches += r.matches;
    totals.steals_ok += r.stats.total_steals_succeeded();
    totals.offloads += r.stats.total_offloads();
    totals.parks += r.stats.total_parks();
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli = standard_cli("ablation_scheduler",
                               "Ablation: static vs central-queue vs stealing");
  cli.option("query-size", "8",
             "Query graph size (8 = the heavy-tailed regime where the "
             "schedulers diverge)");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const double scale = cli.get_double("scale");
  const auto num_queries = static_cast<std::uint32_t>(cli.get_int("queries"));
  const std::int64_t stream_cap = cli.get_int("stream");
  const unsigned threads = bench::resolve_threads(cli.get_int("threads"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  print_experiment_banner(
      "Ablation: inner-update scheduler",
      "Static partition vs central concurrent queue (Algorithm 2) vs work "
      "stealing, GraphFlow, LiveJournal-hard stand-in");

  Workload wl = build_workload(livejournal_hard_spec(scale, 8),
                               static_cast<std::uint32_t>(cli.get_int("query-size")),
                               num_queries, 0.10, seed);
  cap_stream(wl, stream_cap);

  engine::WorkerPool pool(threads);
  util::Table table({"scheduler", "makespan_ms", "cpu_ms", "steals_ok", "offloads",
                     "parks", "speedup_vs_static"});
  util::CsvWriter csv(results_path("ablation_scheduler"),
                      {"scheduler", "makespan_ms", "cpu_ms", "matches", "steals_ok",
                       "offloads", "parks"});

  const auto accumulate = [](SchedulerTotals& sum, const SchedulerTotals& part) {
    sum.makespan_ns += part.makespan_ns;
    sum.cpu_ns += part.cpu_ns;
    sum.matches += part.matches;
    sum.steals_ok += part.steals_ok;
    sum.offloads += part.offloads;
    sum.parks += part.parks;
  };

  double static_ms = 0;
  for (const engine::Scheduler scheduler :
       {engine::Scheduler::kStatic, engine::Scheduler::kCentralQueue,
        engine::Scheduler::kWorkStealing}) {
    const std::string which(engine::scheduler_name(scheduler));
    SchedulerTotals sum;
    for (const auto& q : wl.queries) {
      engine::InnerExecutor exec(pool, 4, scheduler);
      accumulate(sum, drive(wl, q, [&](const auto& alg, auto seeds) {
                   return exec.run(alg, std::move(seeds));
                 }));
    }
    const double ms = static_cast<double>(sum.makespan_ns) / 1e6;
    if (scheduler == engine::Scheduler::kStatic) static_ms = ms;
    table.row({which, util::Table::num(ms, 3),
               util::Table::num(static_cast<double>(sum.cpu_ns) / 1e6, 3),
               util::Table::num(static_cast<double>(sum.steals_ok), 0),
               util::Table::num(static_cast<double>(sum.offloads), 0),
               util::Table::num(static_cast<double>(sum.parks), 0),
               static_ms > 0 ? util::Table::num(static_ms / ms, 2) + "x" : "-"});
    csv.row({which, util::CsvWriter::num(ms, 3),
             util::CsvWriter::num(static_cast<double>(sum.cpu_ns) / 1e6, 3),
             util::CsvWriter::num(sum.matches), util::CsvWriter::num(sum.steals_ok),
             util::CsvWriter::num(sum.offloads), util::CsvWriter::num(sum.parks)});
  }

  std::puts("Scheduler ablation (total simulated makespan across the stream):");
  table.print();
  std::printf("\nCSV written to %s\n", results_path("ablation_scheduler").c_str());
  return 0;
}
