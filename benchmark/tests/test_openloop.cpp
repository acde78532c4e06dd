#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "openloop.hpp"

namespace bench {
namespace {

TEST(OpenLoop, StallInflatesLaterRequestsLatency) {
  // A synchronous consumer (send() returns when the request is served) that
  // stalls 100 ms on request 5, against a 5 ms schedule. The generator falls
  // behind, so a send-to-done timer would see only the short service times
  // of the requests queued behind the stall; timing from the due instant
  // charges them the wait. The margins leave room for a loaded machine
  // oversleeping by a few milliseconds.
  constexpr std::size_t kN = 60;
  std::vector<std::int64_t> offsets(kN), sent(kN), done(kN);
  for (std::size_t i = 0; i < kN; ++i) offsets[i] = static_cast<std::int64_t>(i) * 5'000'000;
  const std::int64_t start = now_ns();
  run_schedule(start, offsets, sent, [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(i == 5 ? 100'000 : 100));
    done[i] = now_ns();
  });
  const auto due = [&](std::size_t i) { return start + offsets[i]; };
  for (std::size_t i = 6; i <= 10; ++i) {
    EXPECT_GE(done[i] - due(i), 50'000'000) << "request " << i;
    EXPECT_LT(done[i] - sent[i], 25'000'000) << "request " << i;
  }
  // The schedule does not shift: once the backlog is sent, requests go out
  // on time again rather than a stall's length late.
  EXPECT_LT(sent[kN - 1] - due(kN - 1), 20'000'000);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_GE(sent[i], due(i));
}

TEST(OpenLoop, PoissonGapsHaveTheRequestedMean) {
  paracosm::util::Rng rng(3);
  std::vector<std::int64_t> offsets;
  append_poisson(offsets, 2000, 20000, rng);
  append_poisson(offsets, 5000, 20000, rng);
  ASSERT_EQ(offsets.size(), 40000u);
  for (std::size_t i = 1; i < offsets.size(); ++i) ASSERT_GE(offsets[i], offsets[i - 1]);
  const double low_mean = static_cast<double>(offsets[19999]) / 20000;
  const double high_mean = static_cast<double>(offsets[39999] - offsets[19999]) / 20000;
  EXPECT_NEAR(low_mean, 500'000, 15'000);
  EXPECT_NEAR(high_mean, 200'000, 6'000);
}

}  // namespace
}  // namespace bench
