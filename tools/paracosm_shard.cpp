// paracosm_shard — the shard worker process (DESIGN.md §12).
//
// Not meant to be launched by hand: the coordinator (paracosm_serve
// --shards N) forks and execs this binary with an inherited socketpair fd.
// Everything interesting lives in src/shard/worker.cpp; this translation
// unit is only flag parsing.
#include <cstdio>

#include "shard/worker.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  paracosm::util::Cli cli("paracosm_shard",
                          "shard worker process, forked by paracosm_serve "
                          "--shards N (DESIGN.md §12)");
  cli.option("id", "0", "this shard's id, in [0, shards)")
      .option("shards", "0", "number of shards (required)")
      .option("fd", "-1", "inherited socketpair fd to the coordinator (required)")
      .option("graph", "", "data graph file (required)")
      .option("query", "", "query graph file (required)")
      .option("algorithm", "graphflow", "CSM algorithm")
      .option("threads", "1", "worker threads for the search phase")
      .option("wal", "", "write-ahead log path")
      .option("snapshot", "", "snapshot path")
      .option("snapshot-every", "0", "updates between snapshots (0 = never)")
      .option("budget-us", "0", "per-update search budget in microseconds")
      .option("metrics-out", "", "metrics file path")
      .option("metrics-every", "0", "updates between metrics flushes")
      .flag("recover", "replay the WAL on top of the snapshot before serving")
      .option("kill-at", "-1",
              "fault: exit right after the WAL append of this sequence");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  paracosm::shard::WorkerOptions opts;
  opts.shard_id = static_cast<std::uint32_t>(cli.get_int("id"));
  opts.n_shards = static_cast<std::uint32_t>(cli.get_int("shards"));
  opts.fd = static_cast<int>(cli.get_int("fd"));
  opts.graph_path = cli.get("graph");
  opts.query_path = cli.get("query");
  opts.algorithm = cli.get("algorithm");
  opts.threads = static_cast<unsigned>(cli.get_int("threads"));
  opts.wal_path = cli.get("wal");
  opts.snapshot_path = cli.get("snapshot");
  opts.snapshot_every = static_cast<std::uint64_t>(cli.get_int("snapshot-every"));
  opts.budget_us = cli.get_int("budget-us");
  opts.metrics_path = cli.get("metrics-out");
  opts.metrics_every = static_cast<std::uint64_t>(cli.get_int("metrics-every"));
  opts.recover = cli.get_bool("recover");
  opts.kill_at = cli.get_int("kill-at");
  if (opts.fd < 0 || opts.graph_path.empty() || opts.query_path.empty() ||
      opts.n_shards == 0 || opts.shard_id >= opts.n_shards) {
    std::fprintf(stderr,
                 "paracosm_shard: --id, --shards, --fd, --graph and --query "
                 "are required, with id < shards (try --help)\n");
    return 2;
  }
  return paracosm::shard::run_worker(opts);
}
