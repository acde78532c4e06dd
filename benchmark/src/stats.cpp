#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace bench {

namespace {

[[nodiscard]] std::uint64_t nearest_rank(std::uint64_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990 despite 99.9 being inexact.
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::uint64_t rank = nearest_rank(values.size(), p);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::uint64_t samples_beyond(std::uint64_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double supported_tail(std::uint64_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 50.0;
}

}  // namespace bench
