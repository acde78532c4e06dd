// paracosm_bench: the compiled half of the repository benchmark. run.py
// drives it; each subcommand prints one JSON object on stdout.
//
//   paracosm_bench prepare   --workload W --seed N --dir D
//   paracosm_bench reference --workload W --dir D
//   paracosm_bench run       --workload W --dir D --seconds S [--trace]
//                            [--trace-out FILE]
#include <exception>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command != "prepare" && command != "reference" && command != "run") {
    std::cerr << "usage: paracosm_bench {prepare|reference|run} --workload W --dir D ...\n";
    return 2;
  }
  paracosm::util::Cli cli("paracosm_bench " + command, "Repository benchmark step");
  cli.option("workload", "", "Workload name")
      .option("dir", "", "Work directory holding the generated inputs")
      .option("seed", "1", "Input seed (prepare)")
      .option("seconds", "10", "Measured seconds (run)")
      .option("trace-out", "", "Perfetto JSON of the last traced rep (run --trace)")
      .flag("trace", "Per-layer run: traced reps after untraced ones (run)");
  if (!cli.parse(argc - 1, argv + 1)) return cli.exit_code();
  try {
    const std::string workload = cli.get("workload");
    const std::string dir = cli.get("dir");
    if (command == "prepare") {
      bench::prepare(workload, static_cast<std::uint64_t>(cli.get_int("seed")), dir, std::cout);
    } else if (command == "reference") {
      bench::reference(workload, dir, std::cout);
    } else {
      bench::RunOptions opts;
      opts.seconds = cli.get_double("seconds");
      opts.trace = cli.get_bool("trace");
      opts.trace_out = cli.get("trace-out");
      bench::run(workload, dir, opts, std::cout);
    }
  } catch (const std::exception& e) {
    std::cerr << "paracosm_bench " << command << ": " << e.what() << '\n';
    return 1;
  }
  return 0;
}
