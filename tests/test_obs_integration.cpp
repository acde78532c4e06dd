// End-to-end observability tests (ISSUE 5): drive a fixed update stream with
// tracing enabled and check the recorded span tree against the engine's own
// accounting — task spans nest inside update spans, batch spans contain only
// the safe phases, counts match StreamResult exactly — and that tracing is
// purely observational (match delivery is byte-identical traced vs untraced).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "csm/algorithm.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/paracosm.hpp"
#include "service/service.hpp"
#include "tests/test_support.hpp"

namespace paracosm {
namespace {

using graph::GraphUpdate;
using obs::EventKind;
using obs::RingSnapshot;
using obs::TraceEvent;
using obs::TraceRegistry;

#if defined(PARACOSM_TRACE_ENABLED)

struct TraceLevelGuard {
  ~TraceLevelGuard() { obs::set_trace_level(0); }
};

// A span as a closed wall-clock interval; instants have end == start.
struct Interval {
  std::int64_t start;
  std::int64_t end;
};

[[nodiscard]] bool contains(const Interval& outer, const Interval& inner) {
  return outer.start <= inner.start && inner.end <= outer.end;
}

[[nodiscard]] bool contained_in_any(const std::vector<Interval>& outers,
                                    const Interval& inner) {
  for (const Interval& o : outers)
    if (contains(o, inner)) return true;
  return false;
}

struct CollectedTrace {
  std::vector<RingSnapshot> rings;

  [[nodiscard]] std::uint64_t count(EventKind kind) const {
    std::uint64_t n = 0;
    for (const RingSnapshot& ring : rings)
      for (const TraceEvent& ev : ring.events)
        if (ev.kind == static_cast<std::uint32_t>(kind)) ++n;
    return n;
  }

  [[nodiscard]] std::vector<Interval> intervals(EventKind kind) const {
    std::vector<Interval> out;
    for (const RingSnapshot& ring : rings)
      for (const TraceEvent& ev : ring.events)
        if (ev.kind == static_cast<std::uint32_t>(kind))
          out.push_back({ev.ts_ns,
                         ev.dur_ns < 0 ? ev.ts_ns : ev.ts_ns + ev.dur_ns});
    return out;
  }

  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const RingSnapshot& ring : rings) n += ring.dropped;
    return n;
  }
};

// Reset the registry for a fresh run and size rings so nothing is dropped
// (dropped events would invalidate the exact count assertions below).
void reset_tracing(std::size_t ring_capacity) {
  obs::set_trace_level(0);
  TraceRegistry::instance().clear();
  TraceRegistry::instance().set_ring_capacity(ring_capacity);
}

CollectedTrace collect_tracing() {
  obs::set_trace_level(0);
  return CollectedTrace{TraceRegistry::instance().collect()};
}

// ~500-update mixed stream; deterministic in the seed.
testing::SmallWorkload fixed_workload() {
  testing::SmallWorkload wl =
      testing::make_workload(/*seed=*/17, /*n=*/128, /*m=*/950);
  EXPECT_GE(wl.stream.size(), 300u);
  if (wl.stream.size() > 500) wl.stream.resize(500);
  return wl;
}

engine::Config fast_config(unsigned threads) {
  engine::Config cfg;
  cfg.threads = threads;
  cfg.batch_size = 8;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  return cfg;
}

// ------------------------------------------------------------ span tree

TEST(ObsIntegration, SpanTreeMatchesEngineAccounting) {
  TraceLevelGuard guard;
  reset_tracing(1 << 16);
  testing::SmallWorkload wl = fixed_workload();
  const auto alg = csm::make_algorithm("graphflow");

  obs::set_trace_level(1);  // before the ctor: workers name their lanes
  engine::ParaCosm pc(*alg, wl.query, wl.graph, fast_config(4));
  const engine::StreamResult res = pc.process_stream(wl.stream);
  const CollectedTrace trace = collect_tracing();

  ASSERT_EQ(trace.total_dropped(), 0u) << "grow the test ring capacity";
  EXPECT_EQ(res.updates_processed, wl.stream.size());
  EXPECT_EQ(res.updates_processed, res.safe_applied + res.unsafe_sequential);

  // Exact correspondence between the trace and the engine's own counters:
  // one kUpdate span per unsafe (sequentially processed) update, one
  // kSafeApply instant per batch-applied safe update, one kBatch span per
  // batch, and one kMultiClassify span per classified lane (the engine's
  // shared phase-1 pass; deferred updates are re-classified in a later
  // batch, and the unsafe path's re-check records none).
  EXPECT_EQ(trace.count(EventKind::kUpdate), res.unsafe_sequential);
  EXPECT_EQ(trace.count(EventKind::kSafeApply), res.safe_applied);
  EXPECT_EQ(trace.count(EventKind::kBatch), res.batches);
  EXPECT_EQ(trace.count(EventKind::kMultiClassify), res.backend_cpu.lanes);
  EXPECT_GE(trace.count(EventKind::kMultiClassify), res.updates_processed);
  // One kBatchBackend completion per classified batch, matching the
  // classify-pass counters.
  EXPECT_EQ(trace.count(EventKind::kBatchBackend), res.batches);
  EXPECT_EQ(res.backend_cpu.batches, res.batches);
  EXPECT_GT(res.unsafe_sequential, 0u) << "stream exercised no searches";
  EXPECT_GT(res.safe_applied, 0u) << "stream exercised no batch fast path";

  // Level 1 excludes the per-search-node instants.
  EXPECT_EQ(trace.count(EventKind::kBacktrackEnter), 0u);
  EXPECT_EQ(trace.count(EventKind::kPrune), 0u);
  EXPECT_EQ(trace.count(EventKind::kEmit), 0u);

  const std::vector<Interval> updates = trace.intervals(EventKind::kUpdate);
  const std::vector<Interval> batches = trace.intervals(EventKind::kBatch);

  // Every task expansion happens during some update's span (the update span
  // closes only after the worker pool quiesced).
  for (const Interval& task : trace.intervals(EventKind::kTaskExpand))
    EXPECT_TRUE(contained_in_any(updates, task))
        << "task span outside every update span";

  // Batch spans cover classify + safe-apply only: classification spans and
  // safe-apply instants land inside them, unsafe update spans never do.
  for (const Interval& c : trace.intervals(EventKind::kMultiClassify))
    EXPECT_TRUE(contained_in_any(batches, c))
        << "classify span outside every batch span";
  for (const Interval& s : trace.intervals(EventKind::kSafeApply))
    EXPECT_TRUE(contained_in_any(batches, s))
        << "safe-apply instant outside every batch span";
  for (const Interval& u : updates)
    for (const Interval& b : batches)
      EXPECT_FALSE(u.start < b.end && b.start < u.end)
          << "unsafe update span overlaps a batch span";

  // Per-lane epoch stamps are strictly monotonic (consecutive: no drops).
  for (const RingSnapshot& ring : trace.rings)
    for (std::size_t i = 1; i < ring.events.size(); ++i)
      ASSERT_EQ(ring.events[i].seq, ring.events[i - 1].seq + 1)
          << "lane " << ring.name;

  // Worker lanes got named by the pool; batch spans live on the caller lane.
  bool saw_worker = false;
  for (const RingSnapshot& ring : trace.rings)
    saw_worker |= ring.name.rfind("worker ", 0) == 0;
  EXPECT_TRUE(saw_worker);

  // The collected trace exports to a loadable Chrome trace.
  const std::string path = ::testing::TempDir() + "/obs_integration_trace.json";
  obs::write_chrome_trace(path, trace.rings);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"name\":\"update\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"name\":\"batch\""), std::string::npos);
}

// ----------------------------------------------- classify counter conservation

TEST(ObsIntegration, BackendCountersConserveStreamAccounting) {
  TraceLevelGuard guard;
  testing::SmallWorkload wl = fixed_workload();
  const auto alg = csm::make_algorithm("graphflow");
  engine::ParaCosm pc(*alg, wl.query, wl.graph, fast_config(4));
  const engine::StreamResult res = pc.process_stream(wl.stream);

  const engine::BatchBackendStats& b = res.backend_cpu;
  // One classify pass per batch; every classified lane lands in exactly one
  // verdict bucket.
  EXPECT_EQ(b.batches, res.batches);
  EXPECT_EQ(b.lanes, b.safe_label + b.safe_degree + b.safe_ads + b.unsafe_lanes);
  // Deferred updates are re-classified in a later batch, so classified
  // lanes can only exceed the processed-update count.
  EXPECT_GE(b.lanes, res.updates_processed);
  EXPECT_EQ(res.backend_wide.batches, 0u);
  EXPECT_EQ(res.backend_wide.lanes, 0u);
}

// ------------------------------------------- tracing is purely observational

// Serialize the deterministic merged match delivery (csm/match.hpp contract)
// so two runs can be compared byte-for-byte.
std::vector<std::uint32_t> run_and_serialize_matches(int trace_level) {
  testing::SmallWorkload wl = fixed_workload();
  const auto alg = csm::make_algorithm("graphflow");
  obs::set_trace_level(trace_level);
  engine::ParaCosm pc(*alg, wl.query, wl.graph, fast_config(4));
  std::vector<std::uint32_t> bytes;
  pc.set_match_callback([&bytes](std::span<const csm::Assignment> m) {
    for (const csm::Assignment& a : m) {
      bytes.push_back(a.qv);
      bytes.push_back(a.dv);
    }
    bytes.push_back(~0u);  // delivery separator
  });
  const engine::StreamResult res = pc.process_stream(wl.stream);
  obs::set_trace_level(0);
  bytes.push_back(static_cast<std::uint32_t>(res.positive));
  bytes.push_back(static_cast<std::uint32_t>(res.negative));
  return bytes;
}

TEST(ObsIntegration, TracedRunDeliversIdenticalMatches) {
  TraceLevelGuard guard;
  reset_tracing(1 << 16);
  const std::vector<std::uint32_t> untraced = run_and_serialize_matches(0);
  const std::vector<std::uint32_t> traced = run_and_serialize_matches(1);
  EXPECT_GT(untraced.size(), 2u) << "workload produced no matches";
  EXPECT_EQ(traced, untraced);
}

// ------------------------------------------------- level 2 search instants

TEST(ObsIntegration, LevelTwoRecordsPerNodeInstants) {
  TraceLevelGuard guard;
  reset_tracing(1 << 17);  // per-node instants are plentiful
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/5);
  const auto alg = csm::make_algorithm("graphflow");

  // Raise the level only after construction: the offline attach stage also
  // backtracks (initial matches), and those per-node instants would otherwise
  // break the exact kEmit == ΔM correspondence below.
  engine::ParaCosm pc(*alg, wl.query, wl.graph, fast_config(2));
  obs::set_trace_level(2);
  const engine::StreamResult res = pc.process_stream(wl.stream);
  const CollectedTrace trace = collect_tracing();

  ASSERT_EQ(trace.total_dropped(), 0u) << "grow the test ring capacity";
  EXPECT_GT(trace.count(EventKind::kBacktrackEnter), 0u);
  // One kEmit instant per emitted mapping — exactly the ΔM the run reported.
  EXPECT_EQ(trace.count(EventKind::kEmit), res.positive + res.negative);
  EXPECT_GT(res.positive + res.negative, 0u) << "workload produced no matches";
}

// ---------------------------------------------------------- service layer

TEST(ObsIntegration, ServiceSpansAndPeriodicMetricsFlush) {
  TraceLevelGuard guard;
  reset_tracing(1 << 16);
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/400);
  const auto alg = csm::make_algorithm("graphflow");

  engine::Config cfg = fast_config(2);
  cfg.inter_parallelism = false;
  obs::set_trace_level(1);
  engine::ParaCosm pc(*alg, wl.query, wl.graph, cfg);

  service::ServiceOptions sopts;
  sopts.wal_path = ::testing::TempDir() + "/obs_service.wal";
  sopts.metrics_path = ::testing::TempDir() + "/obs_service_metrics.json";
  sopts.metrics_every = 10;
  service::ServiceReport report;
  {
    service::StreamService svc(pc, sopts);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    report = svc.finish();
  }
  const CollectedTrace trace = collect_tracing();

  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_EQ(trace.total_dropped(), 0u);
  EXPECT_EQ(report.stats.processed, wl.stream.size());

  // One service span per processed update; one WAL append + fsync span per
  // durable record; one metrics-flush span per snapshot written (periodic
  // flushes every 10 updates plus the final flush in finish()).
  EXPECT_EQ(trace.count(EventKind::kServiceUpdate), report.stats.processed);
  EXPECT_EQ(trace.count(EventKind::kWalAppend), report.stats.wal_records);
  EXPECT_EQ(trace.count(EventKind::kWalFsync), report.stats.wal_records);
  EXPECT_EQ(report.stats.metrics_flushes,
            report.stats.processed / sopts.metrics_every + 1);
  EXPECT_EQ(trace.count(EventKind::kMetricsFlush), report.stats.metrics_flushes);

  // WAL spans nest inside their update's service span.
  const std::vector<Interval> service_spans =
      trace.intervals(EventKind::kServiceUpdate);
  for (const Interval& w : trace.intervals(EventKind::kWalAppend))
    EXPECT_TRUE(contained_in_any(service_spans, w));
  for (const Interval& f : trace.intervals(EventKind::kWalFsync))
    EXPECT_TRUE(contained_in_any(service_spans, f));

  // The consumer thread named its lane, and it owns the service spans.
  bool saw_service_lane = false;
  for (const RingSnapshot& ring : trace.rings) {
    if (ring.name != "service") continue;
    saw_service_lane = true;
    std::uint64_t spans = 0;
    for (const TraceEvent& ev : ring.events)
      if (ev.kind == static_cast<std::uint32_t>(EventKind::kServiceUpdate))
        ++spans;
    EXPECT_EQ(spans, report.stats.processed);
  }
  EXPECT_TRUE(saw_service_lane);

  // The histogram-backed report covers every update, and the metrics file on
  // disk carries the end-of-run totals.
  EXPECT_EQ(report.latency.count(), report.stats.processed);
  std::ifstream in(sopts.metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(
      buf.str().find("\"service.processed\": " +
                     std::to_string(report.stats.processed)),
      std::string::npos)
      << buf.str();
  EXPECT_NE(buf.str().find("\"service.latency_ns.p99\""), std::string::npos);
}

#else  // !PARACOSM_TRACE_ENABLED

TEST(ObsIntegration, SkippedWithoutTraceInstrumentation) {
  GTEST_SKIP() << "built with PARACOSM_TRACE=OFF — no instrumentation points";
}

#endif

}  // namespace
}  // namespace paracosm
