// Open-loop load generation: requests are sent on a precomputed schedule,
// never waiting for earlier ones to complete, so a stalled system keeps
// receiving load and its queue grows. Each request is timed from when it
// was *due*, not from when the generator managed to send it: a stall then
// charges the wait it imposes on every later request (no coordinated
// omission), and the generator's own lateness is reported separately.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace bench {

/// Steady-clock nanoseconds (the clock the engine's spans use).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Append `count` Poisson arrivals at `rate_per_s` to `offsets`, continuing
/// from its last offset (or 0); offsets are ns from the start of the load.
void append_poisson(std::vector<std::int64_t>& offsets, double rate_per_s,
                    std::size_t count, paracosm::util::Rng& rng);

/// Send request i at `start_ns + offsets[i]`, recording the instant `send(i)`
/// was called in `sent_ns[i]`. A request whose slot has passed is sent at
/// once; the schedule never shifts.
void run_schedule(std::int64_t start_ns, std::span<const std::int64_t> offsets,
                  std::span<std::int64_t> sent_ns,
                  const std::function<void(std::size_t)>& send);

}  // namespace bench
