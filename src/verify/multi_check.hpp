// Differential verification of the shared multi-query engine (ISSUE 6): for
// a fuzz case, register its queries (with duplicates, mixed algorithms) in
// one MultiQueryEngine and demand byte-identical per-query ΔM totals against
// N independent single-query SequentialEngine runs over private graph copies.
//
// The lanes:
//
//   static      — all queries registered up front; the shared engine at every
//                 thread count, the sharing-off baseline engine and the
//                 sequential path (inter-update parallelism off) must match
//                 the independent runs exactly. This is the acceptance
//                 property behind the scaling bench: sharing buys speed, never
//                 counts.
//   churn       — runtime registration: half the stream runs with the initial
//                 catalogue, then one query is added and one removed, then the
//                 rest runs. The added query's expectation is a sequential run
//                 that warms through the first half without counting (exactly
//                 "registered at the midpoint"); the removed query must keep
//                 its first-half totals and gain nothing after removal.
//
// Divergences reuse the fuzzer vocabulary (lane kBatch — the multi engine IS
// the batch executor) with a "multi[...]" message prefix, so paracosm_fuzz
// prints and persists them uniformly.
#pragma once

#include <cstdint>
#include <vector>

#include "verify/fuzzer.hpp"

namespace paracosm::verify {

struct MultiCheckOptions {
  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  /// Register query 0 a second time under the same algorithm: the duplicate
  /// must land in the same evaluation class and report identical totals.
  bool duplicate_registration = true;
  bool runtime_churn = true;  ///< run the mid-stream add/remove lane
  bool stop_at_first = true;
};

/// Algorithms round-robined over the case's queries.
[[nodiscard]] std::vector<std::string_view> multi_check_algorithms();

[[nodiscard]] std::vector<Divergence> check_multi_case(
    const FuzzCase& c, const MultiCheckOptions& opts = {});

}  // namespace paracosm::verify
