// Order statistics used by every workload's report.
//
// Percentiles are nearest-rank over exact samples (no histogram buckets), so
// a reported time carries all its measured digits. A tail percentile is only
// meaningful when enough samples lie beyond it: `supported_tail` applies the
// rule "the highest percentile with at least ten samples beyond it".
#pragma once

#include <cstdint>
#include <vector>

namespace bench {

/// Nearest-rank percentile, p in [0, 100]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double p);

/// The highest of {99.9, 99, 95, 90, 75, 50} with at least ten of `n`
/// samples beyond it; 50 when even the median has fewer.
[[nodiscard]] double supported_tail(std::uint64_t n);

}  // namespace bench
