// Scheduler microbenchmark: isolates the runtime substrate from the search.
//
// Part 1 drives a synthetic two-level task tree (trivial per-task work)
// through the lock-free Chase–Lev queue at 1/2/4/8 threads and reports
// scheduler CPU cost per task — on a single-core box wall clock measures
// timeslicing, CPU time measures the actual push/pop/steal overhead.
//
// Part 2 measures the persistent pool's fork/join dispatch overhead
// (WorkerPool::last_dispatch_ns) for an empty job, spinning workers vs
// park-always workers (spin budget 0), quantifying what the epoch/futex
// dispatch and the spin window buy per parallel region.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/timer.hpp"

using namespace paracosm;
using namespace paracosm::bench;

namespace {

constexpr int kSeeds = 256;
constexpr int kChildrenPerSeed = 31;
constexpr int kRounds = 6;
constexpr std::uint64_t kTasksPerRound =
    static_cast<std::uint64_t>(kSeeds) * (1 + kChildrenPerSeed);

csm::SearchTask make_task(std::uint32_t depth) {
  csm::SearchTask t;
  for (std::uint32_t i = 0; i < depth; ++i) t.assigned.push_back({i, i});
  return t;
}

/// CPU ns/task for the lock-free per-worker-deque queue.
double bench_cl_queue(unsigned threads) {
  engine::TaskQueue queue(threads, 64);
  std::int64_t cpu_ns = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSeeds; ++i) queue.seed(make_task(1));
    std::vector<std::int64_t> worker_ns(threads, 0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        util::ThreadCpuTimer timer;
        while (auto task = queue.pop_or_finish(w)) {
          if (task->depth() == 1)
            for (int c = 0; c < kChildrenPerSeed; ++c) queue.push(w, make_task(2));
          queue.retire();
        }
        worker_ns[w] = timer.elapsed_ns();
      });
    }
    for (auto& t : workers) t.join();
    for (const std::int64_t ns : worker_ns) cpu_ns += ns;
  }
  return static_cast<double>(cpu_ns) /
         static_cast<double>(kTasksPerRound * kRounds);
}

/// Mean fork/join dispatch overhead for an empty parallel region.
double bench_dispatch(unsigned threads, std::uint32_t spin_iters) {
  engine::WorkerPool pool(threads, spin_iters);
  constexpr int kRegions = 1500;
  std::int64_t total = 0;
  for (int i = 0; i < kRegions; ++i) {
    pool.run([](unsigned) {});
    total += pool.last_dispatch_ns();
  }
  return static_cast<double>(total) / kRegions;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli = standard_cli("micro_scheduler",
                               "Microbenchmark: queue ns/task and pool dispatch");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  print_experiment_banner(
      "Micro: scheduler substrate",
      "Task-queue CPU cost per task (Chase-Lev) and worker-pool dispatch "
      "overhead (spin vs park-always), synthetic task tree");

  util::Table table({"metric", "variant", "threads", "ns"});
  util::CsvWriter csv(results_path("micro_scheduler"),
                      {"metric", "variant", "threads", "ns"});
  const auto row = [&](const char* metric, const char* variant, unsigned threads,
                       double ns) {
    table.row({metric, variant, std::to_string(threads), util::Table::num(ns, 1)});
    csv.row({metric, variant, util::CsvWriter::num(std::int64_t{threads}),
             util::CsvWriter::num(ns, 1)});
  };

  for (unsigned threads : {1u, 2u, 4u, 8u})
    row("cpu_per_task", "cl-queue", threads, bench_cl_queue(threads));
  for (unsigned threads : {2u, 4u, 8u})
    row("dispatch", "spin", threads, bench_dispatch(threads, 1024));
  for (unsigned threads : {2u, 4u, 8u})
    row("dispatch", "park-always", threads, bench_dispatch(threads, 0));

  std::puts("Scheduler substrate micro costs:");
  table.print();
  std::printf("\nCSV written to %s\n", results_path("micro_scheduler").c_str());
  return 0;
}
