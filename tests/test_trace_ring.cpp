// Trace-ring and exporter tests (ISSUE 5): overwrite pressure with exact
// drop accounting, per-thread monotonic epochs, snapshot-under-producer
// integrity (run under TSan in the sanitizer job), registry lanes, and the
// byte-stable golden Chrome-trace serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/trace_ring.hpp"

namespace paracosm {
namespace {

using obs::EventKind;
using obs::RingSnapshot;
using obs::TraceEvent;
using obs::TraceRegistry;
using obs::TraceRing;

// Restores trace level 0 however a test exits, so suites can't leak
// instrumentation into each other.
struct TraceLevelGuard {
  ~TraceLevelGuard() { obs::set_trace_level(0); }
};

TraceEvent make_event(EventKind kind, std::int64_t ts, std::int64_t dur,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      std::uint64_t c = 0) {
  TraceEvent ev;
  ev.ts_ns = ts;
  ev.dur_ns = dur;
  ev.kind = static_cast<std::uint32_t>(kind);
  ev.a = a;
  ev.b = b;
  ev.c = c;
  return ev;
}

// ------------------------------------------------------------------- ring

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, EmptySnapshotAndCounters) {
  TraceRing r(16);
  std::vector<TraceEvent> out;
  r.snapshot(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(r.pushed(), 0u);
  EXPECT_EQ(r.dropped(), 0u);
}

TEST(TraceRing, OverwritePressureKeepsNewestWithExactDropAccounting) {
  TraceRing r(16);
  ASSERT_EQ(r.capacity(), 16u);
  for (std::uint64_t i = 0; i < 40; ++i)
    r.push(make_event(EventKind::kSteal, static_cast<std::int64_t>(i), -1, i));

  EXPECT_EQ(r.pushed(), 40u);
  EXPECT_EQ(r.dropped(), 24u);  // exactly pushed - capacity

  std::vector<TraceEvent> out;
  r.snapshot(out);
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Surviving window is the newest `capacity` events, oldest first, with
    // consecutive per-thread epochs (seq stamps are 1-based).
    EXPECT_EQ(out[i].a, 24 + i);
    EXPECT_EQ(out[i].seq, 25 + i);
    if (i > 0) {
      EXPECT_EQ(out[i].seq, out[i - 1].seq + 1);
    }
  }
}

TEST(TraceRing, ClearResetsCounters) {
  TraceRing r(8);
  for (int i = 0; i < 20; ++i) r.push_instant(EventKind::kPrune, 1);
  r.clear();
  EXPECT_EQ(r.pushed(), 0u);
  EXPECT_EQ(r.dropped(), 0u);
  std::vector<TraceEvent> out;
  r.snapshot(out);
  EXPECT_TRUE(out.empty());
  r.push_instant(EventKind::kPrune, 7);
  r.snapshot(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 1u);  // epochs restart after clear
}

TEST(TraceRing, SpanAndInstantFieldsRoundTrip) {
  TraceRing r(8);
  r.push_span(EventKind::kUpdate, /*start_ns=*/100, /*dur_ns=*/50, 1, 2, 3);
  r.push_instant(EventKind::kSteal, 4, 5);
  std::vector<TraceEvent> out;
  r.snapshot(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts_ns, 100);
  EXPECT_EQ(out[0].dur_ns, 50);
  EXPECT_EQ(out[0].kind, static_cast<std::uint32_t>(EventKind::kUpdate));
  EXPECT_EQ(out[0].a, 1u);
  EXPECT_EQ(out[0].b, 2u);
  EXPECT_EQ(out[0].c, 3u);
  EXPECT_LT(out[1].dur_ns, 0);  // instant marker
  EXPECT_GT(out[1].ts_ns, 0);   // stamped from the steady clock
}

// The seqlock-style reader contract: a snapshot taken while the producer is
// lapping the ring must only contain intact events with consecutive epochs.
// Event integrity is checkable because push i carries a == i and the ring
// stamps seq == i + 1, so any torn 8-word record breaks a + 1 == seq.
TEST(TraceRing, SnapshotUnderProducerPressureIsIntact) {
  TraceRing r(1 << 10);
  constexpr std::uint64_t kPushes = 200000;

  // Handshake so the producer can't finish before the reader starts (an
  // optimized build pushes 200k events faster than a thread spawn), and
  // violation *counters* instead of mid-loop ASSERTs (an early return here
  // would destroy a joinable thread).
  std::atomic<bool> reader_ready{false};
  std::atomic<bool> done{false};
  std::thread producer([&] {
    while (!reader_ready.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < kPushes; ++i)
      r.push(make_event(EventKind::kTaskExpand, static_cast<std::int64_t>(i),
                        -1, i));
    done.store(true, std::memory_order_release);
  });

  std::vector<TraceEvent> out;
  std::uint64_t snapshots = 0;
  std::uint64_t torn = 0, non_consecutive = 0;
  reader_ready.store(true, std::memory_order_release);
  do {
    r.snapshot(out);
    ++snapshots;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].a + 1 != out[i].seq) ++torn;
      if (i > 0 && out[i].seq != out[i - 1].seq + 1) ++non_consecutive;
    }
  } while (!done.load(std::memory_order_acquire));
  producer.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(torn, 0u) << "torn event in snapshot";
  EXPECT_EQ(non_consecutive, 0u) << "non-consecutive epochs";

  EXPECT_EQ(r.pushed(), kPushes);
  EXPECT_EQ(r.dropped(), kPushes - r.capacity());
  r.snapshot(out);
  ASSERT_EQ(out.size(), r.capacity());
  EXPECT_EQ(out.back().seq, kPushes);
}

// --------------------------------------------------------------- registry

// trace_instant()/set_thread_name() are plain functions (always compiled —
// only the engine-side macros vanish under PARACOSM_TRACE=OFF), so the
// registry tests run in every build flavor.
TEST(TraceRegistry, PerThreadLanesSurviveTheirThreads) {
  TraceLevelGuard guard;
  TraceRegistry& reg = TraceRegistry::instance();
  reg.clear();
  obs::set_trace_level(1);

  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t)
    producers.emplace_back([t] {
      TraceRegistry::set_thread_name("producer " + std::to_string(t));
      for (int i = 0; i < 10 + t; ++i)
        obs::trace_instant(EventKind::kSteal, static_cast<std::uint64_t>(t),
                           static_cast<std::uint64_t>(i));
    });
  for (std::thread& p : producers) p.join();
  obs::set_trace_level(0);

  // Collect after the threads died: entries outlive their threads.
  const std::vector<RingSnapshot> rings = TraceRegistry::instance().collect();
  int found = 0;
  for (int t = 0; t < kProducers; ++t) {
    const std::string want = "producer " + std::to_string(t);
    for (const RingSnapshot& ring : rings) {
      if (ring.name != want) continue;
      ++found;
      EXPECT_EQ(ring.pushed, static_cast<std::uint64_t>(10 + t));
      EXPECT_EQ(ring.dropped, 0u);
      ASSERT_EQ(ring.events.size(), static_cast<std::size_t>(10 + t));
      for (std::size_t i = 0; i < ring.events.size(); ++i) {
        EXPECT_EQ(ring.events[i].a, static_cast<std::uint64_t>(t));
        EXPECT_EQ(ring.events[i].b, i);
        EXPECT_EQ(ring.events[i].seq, i + 1);
      }
    }
  }
  EXPECT_EQ(found, kProducers);

  // Lane ids are unique across the registry.
  for (std::size_t i = 0; i < rings.size(); ++i)
    for (std::size_t j = i + 1; j < rings.size(); ++j)
      EXPECT_NE(rings[i].tid, rings[j].tid);
}

TEST(TraceRegistry, ClearDropsEventsButKeepsLanes) {
  TraceLevelGuard guard;
  TraceRegistry& reg = TraceRegistry::instance();
  obs::set_trace_level(1);
  obs::trace_instant(EventKind::kResplit, 1);
  obs::set_trace_level(0);
  reg.clear();
  for (const RingSnapshot& ring : reg.collect()) {
    EXPECT_EQ(ring.pushed, 0u);
    EXPECT_TRUE(ring.events.empty());
  }
}

// ---------------------------------------------------- golden Chrome trace

// Byte-for-byte golden output: lanes sorted by (name, tid), timestamps
// rebased to the earliest event and formatted with integer math, metadata
// before events, named args. Any formatting change must update this string
// deliberately — Perfetto loads exactly this shape.
TEST(ChromeTrace, GoldenSerializationIsByteStable) {
  RingSnapshot worker;
  worker.tid = 1;
  worker.name = "worker 0";
  worker.pushed = 2;
  worker.events = {
      make_event(EventKind::kUpdate, 2000, 1500, 1, 2, 3),
      make_event(EventKind::kSteal, 3500, -1, 4, 5),
  };
  RingSnapshot main_lane;
  main_lane.tid = 0;
  main_lane.name = "main";  // no events: metadata row only

  // Passed out of (name-sorted) order on purpose.
  const std::string got = obs::chrome_trace_json({worker, main_lane});
  const std::string want =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"paracosm\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"worker 0\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":1.500,"
      "\"name\":\"update\",\"cat\":\"engine\",\"args\":{\"op\":1,\"u\":2,\"v\":3}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":1.500,\"s\":\"t\","
      "\"name\":\"steal\",\"cat\":\"sched\",\"args\":{\"victim\":4,\"thief\":5}}\n"
      "]}\n";
  EXPECT_EQ(got, want);

  // Deterministic: serializing the same input twice is byte-identical.
  EXPECT_EQ(obs::chrome_trace_json({worker, main_lane}), got);
}

TEST(ChromeTrace, DroppedMarkerAndNameEscaping) {
  RingSnapshot lane;
  lane.tid = 2;
  lane.name = "we\"ird\\na\nme";  // quote + backslash escaped, newline dropped
  lane.pushed = 10;
  lane.dropped = 7;
  lane.events = {make_event(EventKind::kWalFsync, 5000, 250)};
  RingSnapshot anon;
  anon.tid = 5;  // empty name falls back to "thread 5"
  anon.events = {make_event(EventKind::kWatchdogFire, 5000, -1, 9)};

  const std::string got = obs::chrome_trace_json({lane, anon});
  const std::string want =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"paracosm\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":5,\"name\":\"thread_name\",\"args\":{\"name\":\"thread 5\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"we\\\"ird\\\\name\"}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":5,\"ts\":0.000,\"s\":\"t\","
      "\"name\":\"watchdog_fire\",\"cat\":\"service\",\"args\":{\"epoch\":9}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0.000,\"dur\":0.250,"
      "\"name\":\"wal_fsync\",\"cat\":\"service\",\"args\":{}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":0.000,\"s\":\"t\","
      "\"name\":\"ring_dropped\",\"cat\":\"obs\",\"args\":{\"dropped\":7}}\n"
      "]}\n";
  EXPECT_EQ(got, want);
}

TEST(ChromeTrace, EmptyInputStillValidJson) {
  const std::string got = obs::chrome_trace_json({});
  EXPECT_EQ(got,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
            "\"args\":{\"name\":\"paracosm\"}}\n]}\n");
}

TEST(ChromeTrace, WriteFileMatchesInMemorySerialization) {
  RingSnapshot lane;
  lane.tid = 3;
  lane.name = "service";
  lane.events = {make_event(EventKind::kServiceUpdate, 9000, 4000, 11, 1)};

  const std::string path = ::testing::TempDir() + "/golden_trace.json";
  obs::write_chrome_trace(path, {lane});

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), obs::chrome_trace_json({lane}));
}

}  // namespace
}  // namespace paracosm
