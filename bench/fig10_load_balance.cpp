// Regenerates paper Figure 10: CDF of per-thread execution time for the
// load-balanced (dynamic task re-splitting) vs unbalanced (static seed
// partition) inner-update executor, GraphFlow, 32 threads.
//
// Paper shape to reproduce: without balancing, thread times spread widely
// (some finish early, stragglers run for much longer); with balancing the
// distribution is tight around the mean, cutting total search time.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace paracosm;
using namespace paracosm::bench;

namespace {

std::vector<std::int64_t> thread_times(const Workload& wl, unsigned threads,
                                       bool balanced, std::int64_t timeout_ms) {
  std::vector<std::int64_t> totals(threads, 0);
  for (const auto& q : wl.queries) {
    RunConfig cfg;
    cfg.algorithm = "graphflow";
    cfg.mode = Mode::kInnerOnly;
    cfg.threads = threads;
    cfg.scheduler =
        balanced ? engine::Scheduler::kCentralQueue : engine::Scheduler::kStatic;
    cfg.timeout_ms = timeout_ms;
    const RunResult r = run_stream(wl, q, cfg);
    for (std::size_t i = 0; i < r.worker_busy_ns.size() && i < totals.size(); ++i)
      totals[i] += r.worker_busy_ns[i];
  }
  std::sort(totals.begin(), totals.end());
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli = standard_cli("fig10_load_balance",
                               "Figure 10: per-thread time CDF, balanced vs not");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const double scale = cli.get_double("scale");
  const auto num_queries = static_cast<std::uint32_t>(cli.get_int("queries"));
  const std::int64_t stream_cap = cli.get_int("stream");
  const std::int64_t timeout_ms = cli.get_int("timeout-ms");
  const unsigned threads = bench::resolve_threads(cli.get_int("threads"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  print_experiment_banner(
      "Figure 10",
      "CDF of per-thread execution time (CPU), GraphFlow with " +
          std::to_string(threads) + " threads, load-balanced vs unbalanced");

  // Calibrated hard variant: skewed, heavy search trees are exactly what
  // the load-balancing comparison needs (see bench_util.hpp).
  Workload wl = build_workload(livejournal_hard_spec(scale, 8), 7, num_queries, 0.10,
                               seed);
  cap_stream(wl, stream_cap);

  const auto balanced = thread_times(wl, threads, true, timeout_ms);
  const auto unbalanced = thread_times(wl, threads, false, timeout_ms);

  util::Table table({"cdf_%", "balanced_ms", "unbalanced_ms"});
  util::CsvWriter csv(results_path("fig10_load_balance"),
                      {"cdf_percent", "balanced_ms", "unbalanced_ms"});
  for (unsigned i = 0; i < threads; ++i) {
    const double pct = 100.0 * (i + 1) / threads;
    const double bal = static_cast<double>(balanced[i]) / 1e6;
    const double unb = static_cast<double>(unbalanced[i]) / 1e6;
    table.row({util::Table::num(pct, 0), util::Table::num(bal, 3),
               util::Table::num(unb, 3)});
    csv.row({util::CsvWriter::num(pct, 0), util::CsvWriter::num(bal, 3),
             util::CsvWriter::num(unb, 3)});
  }

  const auto spread = [](const std::vector<std::int64_t>& v) {
    return v.front() > 0 ? static_cast<double>(v.back()) / static_cast<double>(v.front())
                         : 0.0;
  };
  std::puts("Figure 10 — sorted per-thread CPU time (CDF):");
  table.print();
  std::printf("\nmax/min thread-time spread: balanced %.2fx, unbalanced %.2fx\n",
              spread(balanced), spread(unbalanced));
  std::printf("CSV written to %s\n", results_path("fig10_load_balance").c_str());
  return 0;
}
