// Regenerates paper Figure 8 and Table 6: ParaCOSM speedup and success rate
// on large query graphs (LiveJournal stand-in, 32 threads).
//
// Paper shape to reproduce: consistent speedup across sizes 6-10, strongest
// filtering gains at small sizes; success rates improve markedly over the
// single-threaded baselines of Table 3 for large queries.
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace paracosm;
using namespace paracosm::bench;

int main(int argc, char** argv) {
  util::Cli cli = standard_cli("fig8_table6_large_queries",
                               "Figure 8 + Table 6: big-query speedup & success");
  cli.option("labels", "8",
             "Vertex-label alphabet of the LiveJournal stand-in (branching-"
             "factor calibration, see bench_util.hpp)");
  // Heavier defaults than the lighter benches would blow the CI budget: the
  // whole point of this experiment is queries that flirt with the timeout.
  cli.option("queries", "3", "Query graphs per configuration");
  cli.option("stream", "1000", "Max updates taken from the stream (0 = all)");
  cli.option("timeout-ms", "1000", "Per-query whole-stream time budget");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const double scale = cli.get_double("scale");
  const auto num_queries = static_cast<std::uint32_t>(cli.get_int("queries"));
  const std::int64_t stream_cap = cli.get_int("stream");
  const std::int64_t timeout_ms = cli.get_int("timeout-ms");
  const unsigned threads = bench::resolve_threads(cli.get_int("threads"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  print_experiment_banner(
      "Figure 8 + Table 6",
      "ParaCOSM speedup (successful queries) and success-rate change on large "
      "query graphs, LiveJournal stand-in");

  util::Table fig8({"algorithm", "size", "seq_ms", "para_ms", "speedup"});
  util::Table table6({"algorithm", "size", "seq_succ_%", "para_succ_%", "delta"});
  util::CsvWriter csv(results_path("fig8_table6_large_queries"),
                      {"algorithm", "query_size", "seq_ms", "para_ms", "speedup",
                       "seq_success", "para_success"});

  for (const std::uint32_t size : {6u, 7u, 8u, 9u, 10u}) {
    Workload wl = build_workload(
        livejournal_hard_spec(scale, static_cast<std::uint32_t>(cli.get_int("labels"))),
        size, num_queries, 0.10, seed + 7 * size);
    cap_stream(wl, stream_cap);
    const Workload stripped = strip_edge_labels(wl);

    for (const auto name : csm::algorithm_names()) {
      const Workload& view = workload_for(std::string(name), wl, stripped);
      RunConfig seq;
      seq.algorithm = std::string(name);
      seq.mode = Mode::kSequential;
      seq.timeout_ms = timeout_ms;
      const AggregateResult base = run_all_queries(view, seq);

      RunConfig par = seq;
      par.mode = Mode::kFull;
      par.threads = threads;
      const AggregateResult fast = run_all_queries(view, par);

      fig8.row({std::string(name), std::to_string(size),
                util::Table::num(base.mean_ms), util::Table::num(fast.mean_ms),
                format_speedup(base.mean_ms, fast.mean_ms, base.success_rate > 0,
                               fast.success_rate > 0)});
      const double delta = fast.success_rate - base.success_rate;
      std::string delta_cell = delta >= 0 ? "+" : "";
      delta_cell += util::Table::num(delta, 0);
      table6.row({std::string(name), std::to_string(size),
                  util::Table::num(base.success_rate, 0),
                  util::Table::num(fast.success_rate, 0), delta_cell});
      csv.row({std::string(name), std::to_string(size),
               util::CsvWriter::num(base.mean_ms), util::CsvWriter::num(fast.mean_ms),
               util::CsvWriter::num(base.mean_ms > 0 && fast.mean_ms > 0
                                        ? base.mean_ms / fast.mean_ms
                                        : 0.0),
               util::CsvWriter::num(base.success_rate),
               util::CsvWriter::num(fast.success_rate)});
    }
  }

  std::puts("Figure 8 — speedup on big query graphs (successful queries):");
  fig8.print();
  std::puts("\nTable 6 — success rate with ParaCOSM (delta vs single-threaded):");
  table6.print();
  std::printf("\nCSV written to %s\n",
              results_path("fig8_table6_large_queries").c_str());
  return 0;
}
