// Differential fuzz driver (DESIGN.md §6).
//
// Generates seeded adversarial (graph, queries, stream) cases and checks
// every requested CSM algorithm × executor lane × thread count against the
// from-scratch recompute oracle. On divergence the case is minimized with
// the ddmin shrinker and written as a self-contained repro file that
// `--replay` (or the regression suite) re-runs.
//
//   paracosm_fuzz --seeds 200                    # fixed-seed sweep
//   paracosm_fuzz --seed 42 --shrink             # one case, minimized repro
//   paracosm_fuzz --budget-s 600 --start-seed 0  # time-boxed nightly run
//   paracosm_fuzz --replay repro.txt             # re-run a recorded finding
//   paracosm_fuzz --fault --shrink               # self-test: injected bug
//
// Exit code: 0 = no divergence, 1 = divergence found, 2 = usage error.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "verify/invariants.hpp"
#include "verify/multi_check.hpp"
#include "verify/repro.hpp"
#include "verify/service_check.hpp"
#include "verify/shard_check.hpp"
#include "verify/shrinker.hpp"

namespace {

using namespace paracosm;

std::vector<unsigned> parse_thread_list(const std::string& csv) {
  std::vector<unsigned> out;
  std::string token;
  for (const char ch : csv + ",") {
    if (ch == ',') {
      if (!token.empty()) out.push_back(static_cast<unsigned>(std::stoul(token)));
      token.clear();
    } else {
      token.push_back(ch);
    }
  }
  return out;
}

std::vector<std::string> parse_name_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (const char ch : csv + ",") {
    if (ch == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token.push_back(ch);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("paracosm_fuzz",
                "Differential fuzzer: oracle-checked CSM engine sweeps "
                "(see DESIGN.md §6).");
  cli.option("seed", "-1", "Run exactly this one seed (overrides --seeds)")
      .option("seeds", "200", "Number of consecutive seeds to run")
      .option("start-seed", "0", "First seed of the sweep")
      .option("budget-s", "0", "Wall-clock budget in seconds (0 = unlimited)")
      .option("threads", "1,2,4,8", "Comma-separated thread counts per lane")
      .option("algorithms", "", "Comma-separated algorithm subset (default: all)")
      .option("out", ".", "Directory for shrunk repro files")
      .option("replay", "", "Re-run a repro file instead of fuzzing")
      .flag("shrink", "Minimize failing cases and write repro files")
      .flag("fault", "Inject an unsound ads_safe rule (harness self-test)")
      .flag("invariants", "Additionally run metamorphic invariant checks")
      .flag("counts-only", "Reconcile match counts only (skip mapping multisets)")
      .flag("service",
            "Run the service fault matrix (crash recovery, forced timeouts, "
            "shed/degrade overload) instead of the engine lane matrix")
      .flag("multi",
            "Diff the shared multi-query engine against independent "
            "single-query runs (static + runtime add/remove lanes)")
      .flag("shard",
            "Run the sharded fault matrix: the multi-process coordinator "
            "(clean / seeded kills / transport faults) diffed byte-for-byte "
            "against a single-process run")
      .option("shards", "2", "--shard: worker process count per case")
      .option("kill-points", "3", "--shard: seeded kill cells per case");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  verify::AlgorithmFactory factory;
  if (cli.get_bool("fault")) factory = verify::make_classifier_fault_factory();

  if (const std::string replay = cli.get("replay"); !replay.empty()) {
    const verify::Repro repro = verify::load_repro_file(replay);
    const std::vector<verify::Divergence> divs = verify::check_repro(repro, factory);
    for (const verify::Divergence& d : divs)
      std::fprintf(stderr, "DIVERGENCE %s\n", d.to_string().c_str());
    if (divs.empty()) std::printf("replay clean: %s\n", replay.c_str());
    return divs.empty() ? 0 : 1;
  }

  verify::CheckOptions opts;
  opts.factory = factory;
  opts.check_mappings = !cli.get_bool("counts-only");
  const std::vector<unsigned> threads = parse_thread_list(cli.get("threads"));
  opts.lanes = verify::default_lane_matrix(threads);
  const std::vector<std::string> algo_names = parse_name_list(cli.get("algorithms"));
  if (!algo_names.empty()) {
    opts.algorithms.clear();
    for (const std::string& n : algo_names) opts.algorithms.push_back(n);
  }

  std::uint64_t start = static_cast<std::uint64_t>(cli.get_int("start-seed"));
  std::uint64_t count = static_cast<std::uint64_t>(cli.get_int("seeds"));
  if (cli.get_int("seed") >= 0) {
    start = static_cast<std::uint64_t>(cli.get_int("seed"));
    count = 1;
  }
  const std::int64_t budget_s = cli.get_int("budget-s");
  const auto t0 = std::chrono::steady_clock::now();
  const auto budget_left = [&] {
    if (budget_s <= 0) return true;
    return std::chrono::steady_clock::now() - t0 < std::chrono::seconds(budget_s);
  };

  const bool service_mode = cli.get_bool("service");
  const bool multi_mode = cli.get_bool("multi");
  const bool shard_mode = cli.get_bool("shard");
  const std::vector<unsigned> thread_list = parse_thread_list(cli.get("threads"));

  // The multi lane wants more standing queries per case than the engine
  // matrix default — more sharing and more index pressure per seed.
  verify::FuzzKnobs multi_knobs;
  multi_knobs.num_queries = 4;

  std::uint64_t cases = 0, failures = 0;
  for (std::uint64_t seed = start; seed < start + count && budget_left(); ++seed) {
    const verify::FuzzCase c =
        multi_mode ? verify::generate_case(seed, multi_knobs)
                   : verify::generate_case(seed);
    ++cases;

    std::vector<verify::Divergence> divs;
    if (multi_mode) {
      // Shared multi-query evaluation vs N independent single-query engines
      // (see verify/multi_check.hpp). Not shrinkable: the predicate spans
      // the whole query catalogue, so failures carry the seed for replay.
      verify::MultiCheckOptions mopts;
      if (!thread_list.empty()) mopts.thread_counts = thread_list;
      divs = verify::check_multi_case(c, mopts);
    } else if (shard_mode) {
      // Sharded differential gate: multi-process coordinator vs one
      // single-process run, under clean / kill / transport-fault lanes
      // (see verify/shard_check.hpp). Spawns real worker processes; not
      // shrinkable — failures carry the seed for replay.
      verify::ShardCheckOptions shopts;
      if (!algo_names.empty()) shopts.algorithm = algo_names.front();
      if (!thread_list.empty()) shopts.threads = thread_list.front();
      shopts.n_shards = static_cast<std::uint32_t>(cli.get_int("shards"));
      shopts.kill_points = static_cast<std::uint32_t>(cli.get_int("kill-points"));
      shopts.dir = cli.get("out");
      divs = verify::check_shard_case(c, shopts);
    } else if (service_mode) {
      // Service fault matrix: every resilience lane, cross-checked against
      // the oracle (see verify/service_check.hpp). Algorithm defaults to the
      // first of --algorithms (or graphflow).
      verify::ServiceCheckOptions sopts;
      if (!algo_names.empty()) sopts.algorithm = algo_names.front();
      if (!thread_list.empty()) sopts.threads = thread_list.back();
      sopts.dir = cli.get("out");
      for (const verify::ServiceFault fault : verify::all_service_faults()) {
        sopts.fault = fault;
        for (verify::Divergence& d : verify::check_service_case(c, sopts))
          divs.push_back(std::move(d));
        if (!divs.empty()) break;
      }
    } else {
      divs = verify::check_case(c, opts);
    }
    if (cli.get_bool("invariants") && divs.empty()) {
      for (std::string& v : verify::check_all_invariants(c)) {
        verify::Divergence d;
        d.seed = seed;
        d.message = "invariant violated: " + v;
        divs.push_back(std::move(d));
        break;  // one is enough to fail the seed
      }
    }
    if (divs.empty()) {
      if (cases % 25 == 0)
        std::fprintf(stderr, "[paracosm_fuzz] %llu cases clean (seed %llu)\n",
                     static_cast<unsigned long long>(cases),
                     static_cast<unsigned long long>(seed));
      continue;
    }

    ++failures;
    const verify::Divergence& d = divs.front();
    std::fprintf(stderr, "DIVERGENCE %s\n", d.to_string().c_str());

    // Service-lane failures are not shrinkable with the engine-lane
    // predicate; they carry the full seed for replay instead.
    if (!service_mode && cli.get_bool("shrink") && !d.algorithm.empty()) {
      verify::ShrinkOptions sopts;
      sopts.factory = factory;
      sopts.check_mappings = opts.check_mappings;
      const verify::ShrinkResult res = verify::shrink(c, d, sopts);
      const std::string path = cli.get("out") + "/repro_seed" +
                               std::to_string(seed) + "_" + res.divergence.algorithm +
                               ".txt";
      verify::save_repro_file({res.reduced, res.divergence}, path);
      std::fprintf(stderr,
                   "  shrunk to %zu updates / %u query vertices / %llu graph "
                   "edges in %u runs -> %s\n",
                   res.reduced.stream.size(),
                   res.reduced.queries.front().num_vertices(),
                   static_cast<unsigned long long>(res.reduced.graph.num_edges()),
                   res.predicate_runs, path.c_str());
    }
  }

  std::printf("paracosm_fuzz: %llu cases, %llu with divergences\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
