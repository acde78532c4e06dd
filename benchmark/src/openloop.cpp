#include "openloop.hpp"

#include <chrono>
#include <cmath>
#include <thread>

namespace bench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_poisson(std::vector<std::int64_t>& offsets, double rate_per_s,
                    std::size_t count, paracosm::util::Rng& rng) {
  double t = offsets.empty() ? 0.0 : static_cast<double>(offsets.back());
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1e9;
    offsets.push_back(static_cast<std::int64_t>(t));
  }
}

void run_schedule(std::int64_t start_ns, std::span<const std::int64_t> offsets,
                  std::span<std::int64_t> sent_ns,
                  const std::function<void(std::size_t)>& send) {
  // Sleep through long gaps, spin the last stretch: the OS timer slack
  // (~50 us) would otherwise show up as generator lag at kHz rates.
  constexpr std::int64_t kSpinNs = 200'000;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::int64_t due = start_ns + offsets[i];
    for (std::int64_t left = due - now_ns(); left > 0; left = due - now_ns()) {
      if (left > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
    sent_ns[i] = now_ns();
    send(i);
  }
}

}  // namespace bench
