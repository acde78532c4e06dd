// Property tests for the inter-update batch executor (Figure 6,
// DESIGN.md §4): ParaCosm::process_stream classifies each batch across the
// pool, commits the strict-mode safe prefix and runs the first unsafe update
// sequentially. The tests pin:
//
//   * byte-identical ΔM across {1,2,4,8} threads, full mapping granularity
//     (not just totals), for every batch-capable algorithm;
//   * classify-pass counter conservation (lanes == verdict sum, one
//     classify pass per batch);
//   * the empty stream as a no-op;
//   * TouchedSet, the strict-mode conflict set both engines reuse.
#include <gtest/gtest.h>

#include <vector>

#include "paracosm/paracosm.hpp"
#include "paracosm/touched_set.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

using graph::DataGraph;
using testing::SmallWorkload;
using testing::make_workload;

/// One engine run: totals plus the full flattened match stream (every
/// delivered mapping in delivery order), byte-comparable across runs.
struct RunCapture {
  std::vector<csm::Assignment> flat;
  std::vector<std::size_t> sizes;  ///< mapping boundaries within `flat`
  StreamResult result;
};

RunCapture run_stream(const SmallWorkload& wl, const char* algorithm,
                      unsigned threads) {
  RunCapture cap;
  auto alg = csm::make_algorithm(algorithm);
  if (!alg) {
    ADD_FAILURE() << "unknown algorithm " << algorithm;
    return cap;
  }
  DataGraph g = wl.graph;
  Config cfg;
  cfg.threads = threads;
  cfg.batch_mode = BatchMode::kStrict;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  ParaCosm pc(*alg, wl.query, g, cfg);
  pc.set_match_callback([&cap](std::span<const csm::Assignment> m) {
    cap.sizes.push_back(m.size());
    cap.flat.insert(cap.flat.end(), m.begin(), m.end());
  });
  cap.result = pc.process_stream(wl.stream);
  return cap;
}

/// Every classify-counter identity that must hold after a stream run.
void expect_conserved(const StreamResult& r) {
  const BatchBackendStats& c = r.backend_cpu;
  EXPECT_EQ(c.batches, r.batches);
  EXPECT_EQ(c.lanes, c.safe_label + c.safe_degree + c.safe_ads + c.unsafe_lanes);
  EXPECT_EQ(r.backend_wide.lanes, 0u);
}

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(BackendEquivalence, DeltaMIdenticalAcrossBackendsAndThreads) {
  const auto [algorithm, seed] = GetParam();
  const SmallWorkload wl = make_workload(seed, 36, 90, 3, 2, 4);
  ASSERT_FALSE(wl.stream.empty());

  const RunCapture ref = run_stream(wl, algorithm, 1);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const RunCapture got = run_stream(wl, algorithm, threads);
    EXPECT_EQ(got.result.positive, ref.result.positive)
        << algorithm << " threads=" << threads;
    EXPECT_EQ(got.result.negative, ref.result.negative)
        << algorithm << " threads=" << threads;
    // Byte-identical ΔM: same mappings, same boundaries, same order.
    EXPECT_EQ(got.sizes, ref.sizes) << algorithm << " threads=" << threads;
    EXPECT_EQ(got.flat, ref.flat) << algorithm << " threads=" << threads;
    expect_conserved(got.result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsBySeeds, BackendEquivalence,
    ::testing::Combine(::testing::Values("newsp", "graphflow", "symbi",
                                         "turboflux", "calig"),
                       ::testing::Values(7u, 19u, 33u)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, std::uint64_t>>&
           info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DirectBackends, EmptyBatchIsANoOp) {
  const SmallWorkload wl = make_workload(11, 36, 90, 3, 2, 4);
  auto alg = csm::make_algorithm("newsp");
  ASSERT_NE(alg, nullptr);
  DataGraph g = wl.graph;
  const std::uint64_t edges = g.num_edges();
  Config cfg;
  cfg.threads = 2;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const StreamResult r = pc.process_stream({});
  EXPECT_EQ(r.batches, 0u);
  EXPECT_EQ(r.updates_processed, 0u);
  EXPECT_EQ(r.backend_cpu.batches, 0u);
  EXPECT_EQ(r.backend_cpu.lanes, 0u);
  EXPECT_EQ(r.backend_cpu.safe(), 0u);
  EXPECT_EQ(g.num_edges(), edges);  // must not touch the graph
}

// --- TouchedSet -------------------------------------------------------------

TEST(TouchedSet, MembershipWithinOneBatch) {
  TouchedSet set;
  set.prepare(4);
  EXPECT_FALSE(set.contains(3));
  set.insert(3);
  set.insert(7);
  set.insert(3);  // idempotent
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(5));
  EXPECT_FALSE(set.contains(0));
}

TEST(TouchedSet, PrepareEmptiesTheSet) {
  TouchedSet set;
  set.prepare(4);
  set.insert(3);
  set.insert(0);
  ASSERT_TRUE(set.contains(3));
  set.prepare(4);
  EXPECT_FALSE(set.contains(3));
  EXPECT_FALSE(set.contains(0));
  set.insert(0);
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.contains(3));
}

TEST(TouchedSet, GrowsPastInitialSlotCount) {
  TouchedSet set;
  set.prepare(1);
  const std::size_t initial = set.slots();
  set.insert(42);
  // A batch with far more endpoints than the first table could hold.
  const std::size_t inserts = 4 * initial;
  set.prepare(inserts);
  // A table that did not grow would fill up and never finish an insert.
  ASSERT_GE(set.slots(), 4 * inserts);
  EXPECT_FALSE(set.contains(42)) << "growth must not resurrect old members";
  // Multiples of the slot count collide on the same home slot.
  std::vector<graph::VertexId> ids;
  for (std::size_t i = 0; i < inserts; ++i)
    ids.push_back(static_cast<graph::VertexId>(i * set.slots() + 1));
  for (const graph::VertexId v : ids) set.insert(v);
  for (const graph::VertexId v : ids) EXPECT_TRUE(set.contains(v)) << v;
  EXPECT_FALSE(set.contains(2));
  EXPECT_FALSE(set.contains(static_cast<graph::VertexId>(inserts * set.slots() + 1)));
}

}  // namespace
}  // namespace paracosm::engine
