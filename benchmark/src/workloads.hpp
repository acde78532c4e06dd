// The benchmark's four workloads and their three steps (see README.md):
//
//   prepare   — generate the graph, query and stream files from a seed;
//   reference — compute every request's ΔM with csm::SequentialEngine;
//   run       — set up and measure one workload through public APIs only.
//
// Each step writes one JSON object to `out`; run.py caches the first two and
// checks the third against them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace bench {

void prepare(const std::string& workload, std::uint64_t seed, const std::string& dir,
             std::ostream& out);

void reference(const std::string& workload, const std::string& dir, std::ostream& out);

struct RunOptions {
  double seconds = 10;
  bool trace = false;       ///< per-layer run: traced reps after untraced ones
  std::string trace_out;    ///< Perfetto JSON of the last traced rep ("" = none)
};

void run(const std::string& workload, const std::string& dir, const RunOptions& opts,
         std::ostream& out);

}  // namespace bench
