// Unit tests for the verification subsystem itself: the oracle's ground
// truth on hand-built graphs, repro round-tripping, and the self-test the
// issue demands — an intentionally-injected classifier bug must be caught by
// the fuzzer and shrunk to a handful of updates.
#include <gtest/gtest.h>

#include <sstream>

#include "verify/fuzzer.hpp"
#include "verify/repro.hpp"
#include "verify/shrinker.hpp"

namespace paracosm::verify {
namespace {

using graph::DataGraph;
using graph::GraphUpdate;
using graph::QueryGraph;

// --- oracle ground truth ---------------------------------------------------

// Data: v0(l0) — v1(l1), plus v2(l1) initially isolated.
// Query: q0(l0) — q1(l1). One match initially; inserting (0,2) adds one;
// deleting (0,1) removes one.
TEST(OracleMirror, CountsAndMappingsOnHandBuiltGraph) {
  DataGraph g;
  g.add_vertex_with_id(0, 0);
  g.add_vertex_with_id(1, 1);
  g.add_vertex_with_id(2, 1);
  g.add_edge(0, 1, 0);

  QueryGraph q({0, 1}, {graph::Edge{0, 1, 0}});

  OracleMirror oracle(q, g, /*use_edge_labels=*/true, /*strict=*/true);
  EXPECT_EQ(oracle.match_count(), 1u);

  const OracleDelta& ins = oracle.step(GraphUpdate::insert_edge(0, 2, 0));
  EXPECT_TRUE(ins.applied);
  EXPECT_EQ(ins.positive, 1u);
  EXPECT_EQ(ins.negative, 0u);
  ASSERT_EQ(ins.appeared.size(), 1u);
  const CanonMatch want{{0, 0}, {1, 2}};
  EXPECT_EQ(ins.appeared[0], want);
  EXPECT_EQ(oracle.match_count(), 2u);

  const OracleDelta& del = oracle.step(GraphUpdate::remove_edge(0, 1));
  EXPECT_TRUE(del.applied);
  EXPECT_EQ(del.positive, 0u);
  EXPECT_EQ(del.negative, 1u);
  ASSERT_EQ(del.expired.size(), 1u);
  const CanonMatch gone{{0, 0}, {1, 1}};
  EXPECT_EQ(del.expired[0], gone);
  EXPECT_EQ(oracle.match_count(), 1u);

  // Duplicate insert and phantom removal are no-ops.
  const OracleDelta& dup = oracle.step(GraphUpdate::insert_edge(0, 2, 0));
  EXPECT_FALSE(dup.applied);
  EXPECT_EQ(dup.positive, 0u);
  const OracleDelta& phantom = oracle.step(GraphUpdate::remove_edge(0, 1));
  EXPECT_FALSE(phantom.applied);
  EXPECT_EQ(phantom.negative, 0u);
}

TEST(DeltaReconciler, FlagsCountAndMappingMismatches) {
  OracleDelta want;
  want.positive = 1;
  want.appeared.push_back(CanonMatch{{0, 0}, {1, 2}});

  DeltaReconciler rec;
  // Count mismatch: engine reported nothing.
  auto err = rec.reconcile(want, /*got_positive=*/0, /*got_negative=*/0,
                           /*check_mappings=*/true);
  ASSERT_TRUE(err.has_value());

  // Right count, wrong mapping: strict mode still diverges.
  const std::vector<Assignment> wrong{{0, 0}, {1, 1}};
  rec.clear();
  rec.observe(wrong);
  err = rec.reconcile(want, 1, 0, /*check_mappings=*/true);
  ASSERT_TRUE(err.has_value());

  // ...but passes in counting mode — which is exactly why strict mode exists.
  EXPECT_FALSE(rec.reconcile(want, 1, 0, /*check_mappings=*/false).has_value());

  // Exact mapping: clean.
  const std::vector<Assignment> right{{1, 2}, {0, 0}};  // any order in
  rec.clear();
  rec.observe(right);
  EXPECT_FALSE(rec.reconcile(want, 1, 0, /*check_mappings=*/true).has_value());
}

// --- repro round-trip ------------------------------------------------------

TEST(Repro, RoundTripsCaseAndCellMetadata) {
  Repro r;
  r.fuzz_case = generate_case(3);
  ASSERT_FALSE(r.fuzz_case.queries.empty());
  Divergence d;
  d.seed = 3;
  d.algorithm = "turboflux";
  d.lane = Lane::kBatch;
  d.threads = 4;
  d.scheduler = engine::Scheduler::kWorkStealing;
  d.query_index = 1;
  d.update_index = 7;
  d.message = "delta count mismatch:\nmulti-line detail";
  r.cell = d;

  std::stringstream ss;
  save_repro(r, ss);
  const Repro back = load_repro(ss);

  EXPECT_EQ(back.fuzz_case.seed, r.fuzz_case.seed);
  EXPECT_EQ(back.fuzz_case.queries.size(), r.fuzz_case.queries.size());
  EXPECT_EQ(back.fuzz_case.stream.size(), r.fuzz_case.stream.size());
  EXPECT_TRUE(back.fuzz_case.graph.same_structure(r.fuzz_case.graph));
  ASSERT_TRUE(back.cell.has_value());
  EXPECT_EQ(back.cell->algorithm, "turboflux");
  EXPECT_EQ(back.cell->lane, Lane::kBatch);
  EXPECT_EQ(back.cell->threads, 4u);
  EXPECT_EQ(back.cell->scheduler, engine::Scheduler::kWorkStealing);
  EXPECT_EQ(back.cell->query_index, 1u);
  ASSERT_TRUE(back.cell->update_index.has_value());
  EXPECT_EQ(*back.cell->update_index, 7u);

  // The stream must replay identically: same ops on the same endpoints.
  for (std::size_t i = 0; i < r.fuzz_case.stream.size(); ++i) {
    EXPECT_EQ(back.fuzz_case.stream[i].op, r.fuzz_case.stream[i].op) << i;
    EXPECT_EQ(back.fuzz_case.stream[i].u, r.fuzz_case.stream[i].u) << i;
    EXPECT_EQ(back.fuzz_case.stream[i].v, r.fuzz_case.stream[i].v) << i;
  }
}

TEST(Repro, LoadRejectsMalformedInput) {
  std::stringstream truncated("# paracosm_fuzz repro v1\nmeta seed 1\n%graph\n");
  EXPECT_THROW((void)load_repro(truncated), std::runtime_error);
  std::stringstream wrong_magic("# something else\n");
  EXPECT_THROW((void)load_repro(wrong_magic), std::runtime_error);
}

// --- fault-injection self-test (acceptance criterion) -----------------------

// An intentionally-injected classifier unsoundness — ads_safe leaking a
// deterministic subset of unsafe updates as "safe" — must be (a) caught by
// the batch-lane fuzzer and (b) shrunk to a repro of at most 10 updates.
TEST(FaultInjection, InjectedClassifierBugIsCaughtAndShrunk) {
  const AlgorithmFactory fault = make_classifier_fault_factory(/*leak_mod=*/3);

  CheckOptions opts;
  opts.factory = fault;
  // The leak only matters where the classifier gates enumeration: batch lane.
  opts.lanes = {{Lane::kBatch, 1}, {Lane::kBatch, 4}};
  opts.stop_at_first = true;

  std::optional<Divergence> found;
  FuzzCase failing;
  for (std::uint64_t seed = 0; seed < 20 && !found; ++seed) {
    FuzzCase c = generate_case(seed);
    auto divs = check_case(c, opts);
    if (!divs.empty()) {
      found = divs.front();
      failing = std::move(c);
    }
  }
  ASSERT_TRUE(found.has_value())
      << "fault-injected classifier survived 20 seeds — the harness is blind";

  ShrinkOptions sopts;
  sopts.factory = fault;
  const ShrinkResult res = shrink(failing, *found, sopts);
  EXPECT_LE(res.reduced.stream.size(), 10u)
      << "shrinker left " << res.reduced.stream.size() << " updates";
  EXPECT_EQ(res.divergence.algorithm, found->algorithm);
  EXPECT_GT(res.predicate_runs, 0u);

  // The shrunk case must still diverge under the fault, and the repro must
  // survive a serialization round trip *still diverging*.
  Repro r;
  r.fuzz_case = res.reduced;
  r.cell = res.divergence;
  std::stringstream ss;
  save_repro(r, ss);
  const Repro back = load_repro(ss);
  EXPECT_FALSE(check_repro(back, fault).empty())
      << "shrunk repro no longer reproduces after round trip";

  // And with the real (sound) classifier the same cell is clean — the
  // divergence is attributable to the injected fault, nothing else.
  EXPECT_TRUE(check_repro(back).empty());
}

}  // namespace
}  // namespace paracosm::verify
