// Service layer: bounded ingest, WAL/snapshot durability, crash recovery,
// the oracle-checked fault matrix, and paracosm_serve's graceful shutdown.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.hpp"
#include "paracosm/multi_query.hpp"
#include "paracosm/paracosm.hpp"
#include "service/ingest.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle_mirror.hpp"
#include "verify/service_check.hpp"

namespace paracosm {
namespace {

using graph::GraphUpdate;
using service::IngestItem;
using service::IngestQueue;
using service::OverloadPolicy;
using service::PushResult;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

engine::Config catalogue_config() {
  engine::Config cfg;
  cfg.threads = 2;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  return cfg;
}

// ------------------------------------------------------------------ ingest

TEST(IngestQueue, FifoRoundtrip) {
  IngestQueue q(8, OverloadPolicy::kBlock);
  for (std::uint32_t i = 0; i < 5; ++i)
    EXPECT_EQ(q.push(GraphUpdate::insert_edge(i, i + 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.approx_size(), 5u);

  IngestItem item;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(item));
    EXPECT_EQ(item.upd.u, i);
    EXPECT_FALSE(item.degraded);
  }
  EXPECT_FALSE(q.try_pop(item));
  EXPECT_EQ(q.stats().enqueued, 5u);
  EXPECT_EQ(q.stats().high_water, 5u);
}

TEST(IngestQueue, ShedPolicyRejectsWhenFull) {
  IngestQueue q(2, OverloadPolicy::kShed);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(0, 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(1, 2, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(2, 3, 0)), PushResult::kShed);
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.stats().enqueued, 2u);
}

TEST(IngestQueue, DegradePolicyFlagsOverloadVictims) {
  IngestQueue q(2, OverloadPolicy::kDegrade);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(0, 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(1, 2, 0)), PushResult::kOk);

  // Third push blocks until the consumer frees a slot, then lands degraded.
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    IngestItem item;
    ASSERT_TRUE(q.try_pop(item));
    EXPECT_FALSE(item.degraded);
  });
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(2, 3, 0)), PushResult::kDegraded);
  consumer.join();

  IngestItem item;
  ASSERT_TRUE(q.try_pop(item));
  EXPECT_FALSE(item.degraded);
  ASSERT_TRUE(q.try_pop(item));
  EXPECT_TRUE(item.degraded);
  EXPECT_EQ(q.stats().degraded, 1u);
  EXPECT_GE(q.stats().blocked_pushes, 1u);
}

TEST(IngestQueue, PopWaitDrainsAfterClose) {
  IngestQueue q(8, OverloadPolicy::kBlock);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(7, 8, 1)), PushResult::kOk);
  q.close();
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(8, 9, 1)), PushResult::kClosed);

  IngestItem item;
  ASSERT_TRUE(q.pop_wait(item));  // the pre-close item must still drain
  EXPECT_EQ(item.upd.u, 7u);
  EXPECT_FALSE(q.pop_wait(item));  // then clean termination
}

TEST(IngestQueue, MpscStressKeepsEveryUpdate) {
  IngestQueue q(16, OverloadPolicy::kBlock);
  constexpr int kProducers = 4, kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        (void)q.push(GraphUpdate::insert_edge(static_cast<graph::VertexId>(p),
                                              static_cast<graph::VertexId>(i), 0));
    });

  std::uint64_t popped = 0, last_u[kProducers] = {};
  bool order_ok = true;
  std::thread consumer([&] {
    IngestItem item;
    while (q.pop_wait(item)) {
      ++popped;
      // Per-producer FIFO: each producer's sequence numbers arrive in order.
      if (item.upd.v < last_u[item.upd.u] && item.upd.v != 0) order_ok = false;
      last_u[item.upd.u] = item.upd.v;
    }
  });
  for (std::thread& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(popped, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(order_ok);
  EXPECT_GE(q.stats().blocked_pushes, 1u);  // capacity 16 vs 2000 pushes
}

// Producers with random gaps, from none to several times the consumer's
// spin phase, so the consumer parks often. pop_wait has no timeout: a lost
// wake-up hangs this test (the ctest timeout catches it).
TEST(IngestQueue, ParkedConsumerWakesForEveryPush) {
  IngestQueue q(64, OverloadPolicy::kBlock);
  constexpr int kProducers = 2, kPerProducer = 10'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      util::Rng rng(0x9a7eULL + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        if (rng.chance(0.75))
          std::this_thread::sleep_for(std::chrono::microseconds(rng.bounded(200)));
        (void)q.push(GraphUpdate::insert_edge(static_cast<graph::VertexId>(p),
                                              static_cast<graph::VertexId>(i), 0));
      }
    });

  std::uint64_t popped = 0;
  int next[kProducers] = {};
  bool order_ok = true;
  std::thread consumer([&] {
    IngestItem item;
    while (q.pop_wait(item)) {
      ++popped;
      const auto p = static_cast<int>(item.upd.u);
      if (static_cast<int>(item.upd.v) != next[p]) order_ok = false;
      next[p] = static_cast<int>(item.upd.v) + 1;
    }
  });
  for (std::thread& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(popped, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(order_ok);
  EXPECT_GT(q.stats().parks, 0u) << "the consumer never parked";
}

// A parked consumer wakes for an admin op and for close().
TEST(IngestQueue, AdminPushAndCloseWakeAParkedConsumer) {
  IngestQueue q(8, OverloadPolicy::kBlock);
  const auto wait_for_parks = [&q](std::uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (q.stats().parks < n && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return q.stats().parks >= n;
  };
  int token = 0;  // an opaque admin pointer: the queue never dereferences it
  auto* const op = reinterpret_cast<service::AdminOp*>(&token);
  std::atomic<int> admin_seen{0};
  std::atomic<bool> stopped{false};
  std::thread consumer([&] {
    IngestItem item;
    while (q.pop_wait(item))
      if (item.admin == op) admin_seen.fetch_add(1);
    stopped.store(true);
  });
  ASSERT_TRUE(wait_for_parks(1)) << "the idle consumer never parked";
  q.push_admin(op);
  ASSERT_TRUE(wait_for_parks(2)) << "the consumer did not wake for the admin op";
  EXPECT_EQ(admin_seen.load(), 1);
  EXPECT_FALSE(stopped.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_EQ(q.stats().enqueued, 0u);  // admin ops are not counted
}

// --------------------------------------------------------------------- WAL

TEST(Wal, AppendReadRoundtrip) {
  const std::string path = tmp_path("roundtrip.wal");
  const std::vector<GraphUpdate> updates = {
      GraphUpdate::insert_edge(1, 2, 3), GraphUpdate::remove_edge(1, 2),
      GraphUpdate::insert_vertex(9, 4), GraphUpdate::remove_vertex(9)};
  {
    service::WalWriter w(path, /*truncate=*/true);
    for (const GraphUpdate& u : updates) (void)w.append(u);
    w.flush();
    EXPECT_EQ(w.next_seq(), updates.size());
  }
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(r.records[i].seq, i);
    EXPECT_EQ(r.records[i].upd, updates[i]);
  }
}

TEST(Wal, TornTailDetectedAndTruncated) {
  const std::string path = tmp_path("torn.wal");
  {
    service::WalWriter w(path, /*truncate=*/true);
    (void)w.append(GraphUpdate::insert_edge(1, 2, 0));
    (void)w.append(GraphUpdate::insert_edge(2, 3, 0));
    w.flush();
  }
  {  // crash mid-append: 11 junk bytes after the good records
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("junkjunkjun", 11);
  }
  service::WalReadResult r = service::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.valid_bytes,
            service::kWalHeaderBytes + 2 * service::kWalRecordBytes);

  service::truncate_wal(path, r.valid_bytes);
  r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);

  // A resumed writer appends cleanly after the cut.
  {
    service::WalWriter w(path, /*truncate=*/false, r.records.size());
    EXPECT_EQ(w.append(GraphUpdate::remove_edge(1, 2)), 2u);
    w.flush();
  }
  r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 3u);
}

TEST(Wal, CorruptedByteInvalidatesSuffix) {
  const std::string path = tmp_path("bitrot.wal");
  {
    service::WalWriter w(path, /*truncate=*/true);
    for (int i = 0; i < 4; ++i)
      (void)w.append(GraphUpdate::insert_edge(i, i + 1, 0));
    w.flush();
  }
  {  // flip one byte inside record 2
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(service::kWalHeaderBytes +
                                        2 * service::kWalRecordBytes + 13));
    f.put('\x5a');
  }
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);  // everything from the bad record on drops
}

TEST(Wal, MissingFileReadsEmpty) {
  const service::WalReadResult r = service::read_wal(tmp_path("absent.wal"));
  EXPECT_FALSE(r.torn_tail);
  EXPECT_TRUE(r.records.empty());
}

TEST(Snapshot, RoundtripPreservesGraphAndMeta) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/5);
  const std::string path = tmp_path("snap.graph");
  service::write_snapshot(path, wl.graph, {17, 0xabcdef12345ULL, "symbi"});

  const auto snap = service::read_snapshot(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->meta.seq, 17u);
  EXPECT_EQ(snap->meta.ads_checksum, 0xabcdef12345ULL);
  EXPECT_EQ(snap->meta.algorithm, "symbi");
  EXPECT_TRUE(snap->graph.same_structure(wl.graph));
}

TEST(Snapshot, RejectsCorruptHeaderOrBody) {
  const std::string path = tmp_path("badsnap.graph");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# not-a-snapshot 1 seq=0 ads=0 alg=x\nv 0 0\n";
  }
  EXPECT_FALSE(service::read_snapshot(path).has_value());
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# paracosm-snapshot 1 seq=3 ads=ff alg=x\nv 0 banana\n";
  }
  EXPECT_FALSE(service::read_snapshot(path).has_value());
  EXPECT_FALSE(service::read_snapshot(tmp_path("nosnap.graph")).has_value());
}

TEST(Recovery, ReplaysWalSuffixOnBaseAndSnapshot) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/11);
  ASSERT_GE(wl.stream.size(), 6u);
  const std::string wal = tmp_path("recover.wal");
  const std::string snap = tmp_path("recover.snap");

  graph::DataGraph expect = wl.graph;
  {
    service::WalWriter w(wal, /*truncate=*/true);
    for (const GraphUpdate& u : wl.stream) {
      (void)w.append(u);
      expect.apply(u);
    }
    w.flush();
  }

  // Base-only recovery replays the full log.
  service::RecoveredState rec = service::recover_state(wl.graph, wal);
  EXPECT_FALSE(rec.used_snapshot);
  EXPECT_EQ(rec.replayed, wl.stream.size());
  EXPECT_EQ(rec.next_seq, wl.stream.size());
  EXPECT_TRUE(rec.graph.same_structure(expect));

  // Snapshot at update s: only the suffix replays, same end state.
  const std::uint64_t s = wl.stream.size() / 2;
  graph::DataGraph snap_graph = wl.graph;
  for (std::uint64_t i = 0; i < s; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {s, 0, "graphflow"});

  rec = service::recover_state(wl.graph, wal, snap);
  EXPECT_TRUE(rec.used_snapshot);
  EXPECT_EQ(rec.replayed, wl.stream.size() - s);
  EXPECT_TRUE(rec.graph.same_structure(expect));
}

TEST(Recovery, SnapshotAheadOfWalTailIsRejected) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/13);
  ASSERT_GE(wl.stream.size(), 4u);
  const std::string wal = tmp_path("ahead.wal");
  const std::string snap = tmp_path("ahead.snap");

  // WAL holds only the first two records…
  {
    service::WalWriter w(wal, /*truncate=*/true);
    (void)w.append(wl.stream[0]);
    (void)w.append(wl.stream[1]);
    w.flush();
  }
  // …but the snapshot claims to be current through seq 4: two records are
  // simply gone, so the state in between is unrecoverable.
  graph::DataGraph snap_graph = wl.graph;
  for (int i = 0; i < 4; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {4, 0, "graphflow"});

  try {
    (void)service::recover_state(wl.graph, wal, snap);
    FAIL() << "snapshot ahead of WAL tail must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(Recovery, DuplicateWalSuffixReplayIsIdempotent) {
  // Snapshot current through seq s, WAL holding the FULL log: the overlap
  // [0, s) replays as no-ops on the snapshot graph (redo idempotence), and
  // nothing double-applies.
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/17);
  ASSERT_GE(wl.stream.size(), 6u);
  const std::string wal = tmp_path("dup.wal");
  const std::string snap = tmp_path("dup.snap");

  graph::DataGraph expect = wl.graph;
  {
    service::WalWriter w(wal, /*truncate=*/true);
    for (const GraphUpdate& u : wl.stream) {
      (void)w.append(u);
      expect.apply(u);
    }
    w.flush();
  }
  const std::uint64_t s = wl.stream.size() / 2;
  graph::DataGraph snap_graph = wl.graph;
  for (std::uint64_t i = 0; i < s; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {s, 0, "graphflow"});

  // First recovery replays the suffix; then recover AGAIN from the same pair
  // after re-applying the suffix by hand — still the same final structure.
  service::RecoveredState rec = service::recover_state(wl.graph, wal, snap);
  EXPECT_TRUE(rec.graph.same_structure(expect));
  service::RecoveredState rec2 = service::recover_state(rec.graph, wal, snap);
  EXPECT_TRUE(rec2.graph.same_structure(expect));
  EXPECT_EQ(rec2.next_seq, wl.stream.size());
}

TEST(Recovery, WalFromDifferentGraphIsRejected) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/19);
  testing::SmallWorkload other = testing::make_workload(/*seed=*/23);
  ASSERT_NE(service::graph_fingerprint(wl.graph),
            service::graph_fingerprint(other.graph));

  const std::string wal = tmp_path("foreign.wal");
  {
    service::WalWriter w(wal, /*truncate=*/true, /*next_seq=*/0,
                         service::graph_fingerprint(other.graph));
    for (const GraphUpdate& u : other.stream) (void)w.append(u);
    w.flush();
  }

  // Replaying onto the graph it was written for works…
  EXPECT_NO_THROW((void)service::recover_state(other.graph, wal));
  // …replaying onto a different graph is rejected with a clear error.
  try {
    (void)service::recover_state(wl.graph, wal);
    FAIL() << "foreign WAL must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos);
  }
}

TEST(Wal, TransientWriteFailuresAreRetriedAndCounted) {
  const std::string path = tmp_path("flaky.wal");
  service::WalWriter w(path, /*truncate=*/true);
  w.inject_transient_failures(3, EINTR);
  (void)w.append(GraphUpdate::insert_edge(1, 2, 0));
  w.inject_transient_failures(2, EAGAIN);
  w.flush();
  EXPECT_EQ(w.retries(), 5u);

  // A non-transient errno is not retried — it surfaces immediately.
  w.inject_transient_failures(1, EIO);
  EXPECT_THROW((void)w.append(GraphUpdate::insert_edge(2, 3, 0)), std::runtime_error);

  // The successfully appended record survived intact.
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_FALSE(r.torn_tail);
}

// ----------------------------------------------------- StreamService + matrix

TEST(StreamService, BlockPolicyIsOracleExact) {
  const verify::FuzzCase c = verify::generate_case(321);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kNone;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, ForcedTimeoutsDegradeButStayConsistent) {
  const verify::FuzzCase c = verify::generate_case(654);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kForcedTimeout;
  opts.timeout_rate = 0.25;
  opts.threads = 4;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, ShedIsDelayedNeverDropped) {
  const verify::FuzzCase c = verify::generate_case(987);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kShedIngest;
  opts.queue_capacity = 2;
  opts.slow_consumer_us = 100;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, DegradePolicyStaysCountExact) {
  const verify::FuzzCase c = verify::generate_case(246);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kDegradeIngest;
  opts.queue_capacity = 2;
  opts.slow_consumer_us = 100;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

// The acceptance-criteria matrix: 25 seeded kill points, each crashing
// between WAL append and apply (some with torn tails and mid-run snapshots),
// recovered and continued — all oracle-exact.
TEST(StreamService, CrashRecoveryMatrix25KillPoints) {
  const verify::FuzzCase c = verify::generate_case(135);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kCrashRecovery;
  opts.crash_points = 25;
  opts.threads = 2;
  opts.dir = ::testing::TempDir();
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

// Updates that queue behind a held consumer are made durable in runs: one
// fdatasync covers many records.
TEST(StreamService, GroupCommitSharesOneFlushAcrossQueuedUpdates) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/440);
  ASSERT_FALSE(wl.stream.empty());
  constexpr std::size_t kQueued = 256;
  engine::MultiQueryEngine engine(wl.graph, catalogue_config());
  engine.add_query("graphflow", wl.query);
  service::ServiceOptions opts;
  opts.queue_capacity = kQueued;
  opts.wal_path = tmp_path("group_commit.wal");
  std::atomic<bool> release{false};
  service::FaultHooks hooks;
  hooks.slow_consumer = [&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  service::ServiceReport report;
  {
    service::StreamService svc(engine, opts, hooks);
    // Repeats become no-op inserts and deletes: still one record each.
    for (std::size_t i = 0; i < kQueued; ++i)
      (void)svc.submit(wl.stream[i % wl.stream.size()]);
    release.store(true);
    report = svc.finish();
  }
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.stats.processed, kQueued);
  EXPECT_EQ(report.stats.wal_records, kQueued);
  EXPECT_GE(report.stats.wal_flushes, 1u);
  EXPECT_LT(report.stats.wal_flushes, report.stats.wal_records);
  EXPECT_EQ(service::read_wal(opts.wal_path).records.size(), kQueued);
}

// A kill in the middle of a run: at each kill seq K the WAL on disk holds K's
// whole run, while exactly K updates have been applied. Recovering from that
// disk image and serving the rest is oracle-exact.
TEST(StreamService, KillMidRunLeavesTheRunDurableAndRecoversExactly) {
  const testing::SmallWorkload wl =
      testing::make_workload(/*seed=*/450, /*n=*/96, /*m=*/480);
  ASSERT_GE(wl.stream.size(), 140u);
  const graph::DataGraph base = wl.graph;
  const std::string dir = tmp_path("kill_mid_run");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = dir + "/live.wal";
  const std::vector<std::uint64_t> kills = {0, 5, 70, wl.stream.size() - 1};
  constexpr std::size_t kCapacity = 64;

  std::map<std::uint64_t, std::uint64_t> applied_at_kill;
  std::uint64_t completed = 0;  // consumer thread only
  std::atomic<bool> release{false};
  service::FaultHooks hooks;
  hooks.slow_consumer = [&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  hooks.after_wal_append = [&](std::uint64_t seq) {
    if (std::find(kills.begin(), kills.end(), seq) == kills.end()) return;
    std::filesystem::copy_file(wal, dir + "/kill_" + std::to_string(seq) + ".wal",
                               std::filesystem::copy_options::overwrite_existing);
    applied_at_kill[seq] = completed;
  };
  {
    graph::DataGraph g = wl.graph;
    engine::MultiQueryEngine engine(g, catalogue_config());
    engine.add_query("graphflow", wl.query);
    service::ServiceOptions opts;
    opts.queue_capacity = kCapacity;
    opts.wal_path = wal;
    service::StreamService svc(engine, opts, hooks);
    svc.set_update_callback([&completed](const service::UpdateDone&) { ++completed; });
    std::thread producer([&] {
      for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    });
    // Hold the consumer until the ring has filled behind it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.queue().approx_size() < kCapacity &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    release.store(true);
    producer.join();
    const service::ServiceReport report = svc.finish();
    ASSERT_TRUE(report.error.empty()) << report.error;
    ASSERT_EQ(report.stats.processed, wl.stream.size());
  }

  bool some_run_beyond_kill = false;
  for (const std::uint64_t k : kills) {
    SCOPED_TRACE("kill at seq " + std::to_string(k));
    const std::string image = dir + "/kill_" + std::to_string(k) + ".wal";
    ASSERT_EQ(applied_at_kill.count(k), 1u);
    EXPECT_EQ(applied_at_kill[k], k);
    const std::size_t durable = service::read_wal(image).records.size();
    EXPECT_GE(durable, k + 1);
    some_run_beyond_kill |= durable > k + 1;

    service::RecoveredState rec = service::recover_state(base, image);
    ASSERT_EQ(rec.next_seq, durable);
    const std::span<const GraphUpdate> all(wl.stream);
    graph::DataGraph prefix = base;
    for (const GraphUpdate& u : all.first(durable)) prefix.apply(u);
    ASSERT_TRUE(rec.graph.same_structure(prefix));

    // Serve the rest on the recovered graph, appending to the copied log.
    const std::span<const GraphUpdate> rest = all.subspan(durable);
    const verify::OracleTrace truth = verify::build_trace(
        wl.query, rec.graph, rest,
        csm::make_algorithm("graphflow")->uses_edge_labels(), /*strict=*/false);
    graph::DataGraph g = rec.graph;
    engine::MultiQueryEngine engine(g, catalogue_config());
    engine.add_query("graphflow", wl.query);
    service::ServiceOptions opts;
    opts.wal_path = image;
    opts.wal_resume = true;
    opts.wal_next_seq = rec.next_seq;
    service::ServiceReport report;
    {
      service::StreamService svc(engine, opts);
      for (const GraphUpdate& u : rest) (void)svc.submit(u);
      report = svc.finish();
    }
    ASSERT_TRUE(report.error.empty()) << report.error;
    EXPECT_EQ(report.positive, truth.total_positive);
    EXPECT_EQ(report.negative, truth.total_negative);
    EXPECT_TRUE(g.same_structure(truth.final_graph));
    EXPECT_EQ(service::read_wal(image).records.size(), wl.stream.size());
  }
  EXPECT_TRUE(some_run_beyond_kill)
      << "no kill point found more than its own record durable";
}

TEST(StreamService, WatchdogBudgetRunSurvives) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/400);
  const auto alg = csm::make_algorithm("graphflow");
  engine::Config cfg;
  cfg.threads = 2;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  engine::ParaCosm pc(*alg, wl.query, wl.graph, cfg);

  service::ServiceOptions sopts;
  sopts.budget_us = 1;  // aggressively small: the watchdog may fire anywhere
  sopts.record_applied_order = true;
  service::ServiceReport report;
  {
    service::StreamService svc(pc, sopts);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    report = svc.finish();
  }
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.stats.processed, wl.stream.size());
  EXPECT_EQ(report.latency.count(), wl.stream.size());

  // However many deadlines fired, maintenance stayed exact.
  const auto fresh = csm::make_algorithm("graphflow");
  fresh->attach(wl.query, wl.graph);
  EXPECT_EQ(alg->ads_checksum(), fresh->ads_checksum());
}

// ----------------------------------------------------- catalogue serving

// A fresh service WAL records its graph's fingerprint, so recovering it onto
// another graph is refused instead of replaying foreign records.
TEST(StreamService, FreshWalRefusesRecoveryOntoAnotherGraph) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/19);
  const testing::SmallWorkload other = testing::make_workload(/*seed=*/23);
  const graph::DataGraph base = wl.graph;
  ASSERT_NE(service::graph_fingerprint(base),
            service::graph_fingerprint(other.graph));

  const std::string wal = tmp_path("service_identity.wal");
  {
    engine::MultiQueryEngine engine(wl.graph, catalogue_config());
    engine.add_query("graphflow", wl.query);
    service::ServiceOptions opts;
    opts.wal_path = wal;
    service::StreamService svc(engine, opts);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    const service::ServiceReport report = svc.finish();
    ASSERT_TRUE(report.error.empty()) << report.error;
  }
  EXPECT_EQ(service::read_wal(wal).fingerprint, service::graph_fingerprint(base));
  EXPECT_NO_THROW((void)service::recover_state(base, wal));
  try {
    (void)service::recover_state(other.graph, wal);
    FAIL() << "a service WAL recovered onto a foreign graph must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

// A duplicate insert and a phantom delete leave the graph unchanged: the
// service counts each as a no-op, whatever the number of registrations.
TEST(StreamService, CatalogueCountsNoopSkips) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/410);
  engine::MultiQueryEngine engine(wl.graph, catalogue_config());
  engine.add_query("graphflow", wl.query);
  engine.add_query("symbi", wl.query);

  graph::VertexId a = 0;
  while (a < wl.graph.vertex_capacity() && wl.graph.neighbors(a).empty()) ++a;
  const auto nbrs = wl.graph.neighbors(a);
  ASSERT_FALSE(nbrs.empty());
  graph::VertexId ghost = 0;
  while (ghost == a || wl.graph.has_edge(a, ghost)) ++ghost;
  const std::vector<GraphUpdate> stream = {
      GraphUpdate::insert_edge(a, nbrs.begin()->v, nbrs.begin()->elabel),
      GraphUpdate::remove_edge(a, ghost, 0)};

  service::ServiceReport report;
  {
    service::StreamService svc(engine, {});
    for (const GraphUpdate& u : stream) (void)svc.submit(u);
    report = svc.finish();
  }
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.stats.processed, 2u);
  EXPECT_EQ(report.stats.noop_skipped, 2u);
  EXPECT_EQ(report.positive + report.negative, 0u);
}

// The admin plane: ops apply between updates, a query added mid-stream sees
// exactly the later updates, engine exceptions reach the caller without
// stopping the service, delivery is per handle, and ops fail after finish().
TEST(StreamService, AdminPlaneChangesTheCatalogueBetweenUpdates) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/420);
  const graph::DataGraph base = wl.graph;
  const std::size_t mid = wl.stream.size() / 2;
  const auto oracle = [&](std::size_t skip) {
    auto alg = csm::make_algorithm("graphflow");
    graph::DataGraph g = base;
    csm::SequentialEngine eng(*alg, wl.query, g);
    std::pair<std::uint64_t, std::uint64_t> t{0, 0};
    for (std::size_t i = 0; i < wl.stream.size(); ++i) {
      const csm::UpdateOutcome out = eng.process(wl.stream[i]);
      if (i < skip) continue;
      t.first += out.positive;
      t.second += out.negative;
    }
    return t;
  };

  engine::MultiQueryEngine engine(wl.graph, catalogue_config());
  const std::size_t h0 = engine.add_query("graphflow", wl.query);
  std::map<std::size_t, std::uint64_t> delivered;
  service::ServiceReport report;
  std::size_t h1 = 0;
  {
    service::StreamService svc(engine, {});
    svc.set_match_callback(
        [&delivered](std::size_t h, std::span<const csm::Assignment>) {
          ++delivered[h];
        });
    for (std::size_t i = 0; i < mid; ++i) (void)svc.submit(wl.stream[i]);
    EXPECT_THROW(svc.add_query("no-such-algorithm", wl.query),
                 std::invalid_argument);
    h1 = svc.add_query("symbi", wl.query);
    EXPECT_NE(h1, h0);
    for (std::size_t i = mid; i < wl.stream.size(); ++i)
      (void)svc.submit(wl.stream[i]);
    svc.drain();
    EXPECT_TRUE(svc.remove_query(h1));
    EXPECT_FALSE(svc.remove_query(h1));
    report = svc.finish();
    EXPECT_THROW(svc.add_query("graphflow", wl.query), std::logic_error);
    EXPECT_THROW(svc.drain(), std::logic_error);
  }
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.stats.processed, wl.stream.size());
  const auto want0 = oracle(0);
  const auto want1 = oracle(mid);
  ASSERT_GT(want1.first + want1.second, 0u);  // the late query sees matches
  EXPECT_EQ(report.handle_positive[h0], want0.first);
  EXPECT_EQ(report.handle_negative[h0], want0.second);
  EXPECT_EQ(report.handle_positive[h1], want1.first);
  EXPECT_EQ(report.handle_negative[h1], want1.second);
  EXPECT_EQ(report.positive, want0.first + want1.first);
  EXPECT_EQ(report.negative, want0.second + want1.second);
  EXPECT_EQ(delivered[h0], want0.first + want0.second);
  EXPECT_EQ(delivered[h1], want1.first + want1.second);
}

// A consumer that dies on a WAL failure fails the admin ops that come after,
// with its own error, and finish() reports the same error.
TEST(StreamService, AdminOpAfterConsumerFailureCarriesTheError) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/430);
  ASSERT_GE(wl.stream.size(), 3u);
  engine::MultiQueryEngine engine(wl.graph, catalogue_config());
  engine.add_query("graphflow", wl.query);
  service::ServiceOptions opts;
  opts.wal_path = tmp_path("admin_failure.wal");
  service::FaultHooks hooks;
  hooks.after_wal_append = [](std::uint64_t seq) {
    if (seq == 1) throw std::runtime_error("disk gone");
  };
  service::ServiceReport report;
  {
    service::StreamService svc(engine, opts, hooks);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    try {
      (void)svc.add_query("symbi", wl.query);
      ADD_FAILURE() << "add_query after a consumer failure did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("disk gone"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(svc.drain(), std::runtime_error);
    report = svc.finish();
  }
  EXPECT_EQ(report.error, "disk gone");
  EXPECT_EQ(report.stats.processed, 1u);
}

// ------------------------------------------------------------ paracosm_serve

/// The paracosm_serve binary: build/tools, next to this test's build/tests.
std::string serve_binary() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return "paracosm_serve";
  std::string path(exe, static_cast<std::size_t>(n));
  path.resize(path.rfind('/'));
  return path + "/../tools/paracosm_serve";
}

/// fork + exec paracosm_serve with `args`; stdout and stderr go to `log`.
pid_t spawn_serve(const std::vector<std::string>& args, const std::string& log) {
  std::vector<std::string> words = {serve_binary()};
  words.insert(words.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Exit code of `pid`, or 128 + signal when a signal killed it.
int wait_exit_code(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// SIGTERM mid-stream is a graceful stop: the tool drains what it enqueued,
// leaves the WAL and a final snapshot on disk and exits 0, and a --recover
// run resumes from them and passes --verify-final.
TEST(ServeTool, SigtermMidStreamDrainsFlushesDurabilityAndExitsZero) {
  // ~250 updates at 5 ms each: the run is still serving when the signal lands.
  const testing::SmallWorkload wl =
      testing::make_workload(/*seed=*/77, /*n=*/96, /*m=*/480);
  ASSERT_GE(wl.stream.size(), 100u);
  const std::string dir = tmp_path("serve_sigterm");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  graph::save_data_graph_file(wl.graph, dir + "/g.graph");
  graph::save_query_graph_file(wl.query, dir + "/q.graph");
  graph::save_update_stream_file(wl.stream, dir + "/s.stream");
  const std::string wal = dir + "/s.wal";
  const std::string snap = dir + "/s.snap";
  const std::vector<std::string> common = {
      "--graph", dir + "/g.graph", "--query", dir + "/q.graph",
      "--stream", dir + "/s.stream", "--algorithm", "graphflow",
      "--threads", "2", "--wal", wal, "--snapshot", snap};

  // A 4-slot ring keeps the producer a few updates ahead of the consumer, so
  // the signal stops the stream instead of landing after the last submit.
  std::vector<std::string> args = common;
  for (const char* a : {"--queue", "4", "--slow-consumer-us", "5000"})
    args.emplace_back(a);
  const pid_t pid = spawn_serve(args, dir + "/serve.log");
  ASSERT_GT(pid, 0);
  constexpr std::uint64_t kBeforeSignal = 8;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::error_code ec;
  while (std::filesystem::file_size(wal, ec) <
             service::kWalHeaderBytes + kBeforeSignal * service::kWalRecordBytes ||
         ec) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << read_file(dir + "/serve.log");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(wait_exit_code(pid), 0) << read_file(dir + "/serve.log");

  const service::WalReadResult log = service::read_wal(wal);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_GE(log.records.size(), kBeforeSignal);
  EXPECT_LT(log.records.size(), wl.stream.size())
      << "the signal landed after the whole stream was served";
  const auto final_snap = service::read_snapshot(snap);
  ASSERT_TRUE(final_snap.has_value()) << "no final snapshot on disk";
  EXPECT_EQ(final_snap->meta.seq, log.records.size());

  args = common;
  args.emplace_back("--recover");
  args.emplace_back("--verify-final");
  const pid_t rec = spawn_serve(args, dir + "/recover.log");
  ASSERT_GT(rec, 0);
  const int code = wait_exit_code(rec);
  const std::string out = read_file(dir + "/recover.log");
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("resuming at seq " + std::to_string(log.records.size())),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("verify-final: OK"), std::string::npos) << out;
  EXPECT_EQ(service::read_wal(wal).records.size(), wl.stream.size());
}

}  // namespace
}  // namespace paracosm
