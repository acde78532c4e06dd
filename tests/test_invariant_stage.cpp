// Tests of the pre-ADS aggregate-invariant batch certifier (DESIGN.md §13.4,
// paracosm/invariant_stage.hpp).
//
// The certifier's one obligation is soundness: a certified batch must have
// ΔM == 0 for every update in it, under any interleaving the parallel apply
// can produce. The tests pin:
//
//   * certificate arithmetic at the deficit boundary (unit);
//   * fuzzed streams: an invariant-on engine produces byte-identical ΔM
//     (full mapping granularity) to an invariant-off engine, across the
//     index-free algorithms and several thread counts — certifying an
//     unsafe batch would show up here as a divergence;
//   * counter conservation: batches_checked == batches, lanes_certified ==
//     ClassifierStats::safe_invariant, and every batch is classified by
//     exactly one of {cpu backend, wide backend, certificate};
//   * incremental O(1) maintenance equals a from-scratch rebuild after
//     delete-heavy streams (including vertex-removal cascades);
//   * the engine's gates: no stage for ADS-bearing algorithms or kPaper
//     batches, regardless of Config::invariant_stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "paracosm/invariant_stage.hpp"
#include "paracosm/paracosm.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

using ::paracosm::testing::make_workload;
using ::paracosm::testing::SmallWorkload;
using graph::DataGraph;
using graph::GraphUpdate;
using graph::QueryGraph;

// ------------------------------------------------------------------- unit

/// Query: a triangle over labels (0,1,2) with edge label 1 everywhere —
/// need[] holds three distinct triples, one edge each... except (0,1),(1,2),
/// (0,2) are all distinct, so every triple needs exactly 1.
[[nodiscard]] QueryGraph triangle_query() {
  return QueryGraph({0, 1, 2},
                    {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
}

TEST(InvariantStage, CertifiesExactlyUpToTheDeficit) {
  const QueryGraph q = triangle_query();
  DataGraph g;
  g.add_vertex(0);  // label 0
  g.add_vertex(1);
  g.add_vertex(2);
  // Empty graph: every triple has count 0, need 1 — deficit 1.
  InvariantStage stage(q, g, /*edge_label_blind=*/false);
  EXPECT_TRUE(stage.certify_batch(0));
  // One insert could fill a deficit-1 triple... but only one triple of the
  // three, so some triple stays deficient: still certifiable.
  EXPECT_TRUE(stage.certify_batch(0));

  // Now fill two of the three triples.
  ASSERT_TRUE(g.add_edge(0, 1, 1));
  stage.on_edge(0, 1, 1, +1);
  ASSERT_TRUE(g.add_edge(1, 2, 1));
  stage.on_edge(1, 2, 1, +1);
  // (0,2) still at count 0, need 1: a 0-insert batch is certifiable, a
  // 1-insert batch is NOT (that insert could complete the triangle).
  EXPECT_TRUE(stage.certify_batch(0));
  EXPECT_FALSE(stage.certify_batch(1));
}

TEST(InvariantStage, BlindStageFoldsEdgeLabelsTogether) {
  const QueryGraph q = triangle_query();
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  g.add_vertex(2);
  InvariantStage stage(q, g, /*edge_label_blind=*/true);
  // A blind stage must count an edge with ANY edge label into the triple.
  ASSERT_TRUE(g.add_edge(0, 1, 7));
  stage.on_edge(0, 1, 7, +1);
  for (const auto& t : stage.triples()) {
    if (t.lmin == 0 && t.lmax == 1) {
      EXPECT_EQ(t.count, 1);
    }
  }
}

TEST(InvariantStage, EndpointLabelOrderIsNormalized) {
  const QueryGraph q = triangle_query();
  DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  g.add_vertex(2);
  InvariantStage stage(q, g, /*edge_label_blind=*/false);
  // Reporting (lv, lu) instead of (lu, lv) must hit the same triple.
  stage.on_edge(1, 0, 1, +1);
  for (const auto& t : stage.triples()) {
    if (t.lmin == 0 && t.lmax == 1) {
      EXPECT_EQ(t.count, 1);
    }
  }
  stage.on_edge(0, 1, 1, -1);
  for (const auto& t : stage.triples()) EXPECT_EQ(t.count, 0);
}

// ------------------------------------------------- fuzzed ΔM equivalence

using Mapping = std::vector<csm::Assignment>;

[[nodiscard]] StreamResult run_stream(csm::CsmAlgorithm& alg, SmallWorkload& wl,
                                      bool invariant_on, unsigned threads,
                                      std::vector<Mapping>* mappings = nullptr) {
  Config cfg;
  cfg.threads = threads;
  cfg.batch_size = 4;
  cfg.invariant_stage = invariant_on;
  ParaCosm pc(alg, wl.query, wl.graph, cfg);
  if (mappings)
    pc.set_match_callback([mappings](std::span<const csm::Assignment> m) {
      mappings->emplace_back(m.begin(), m.end());
    });
  return pc.process_stream(wl.stream);
}

TEST(InvariantStageFuzz, CertifiedRunsMatchUncertifiedAtMappingGranularity) {
  for (const char* name : {"graphflow", "newsp"}) {
    for (std::uint64_t seed : {1u, 5u, 9u, 14u, 21u, 33u}) {
      SmallWorkload off_wl = make_workload(seed);
      SmallWorkload on_wl = off_wl;

      auto off_alg = csm::make_algorithm(name);
      auto on_alg = csm::make_algorithm(name);
      ASSERT_NE(off_alg, nullptr);
      ASSERT_NE(on_alg, nullptr);
      ASSERT_FALSE(off_alg->has_ads()) << name;

      std::vector<Mapping> off_maps, on_maps;
      const StreamResult off =
          run_stream(*off_alg, off_wl, false, /*threads=*/2, &off_maps);
      const StreamResult on =
          run_stream(*on_alg, on_wl, true, /*threads=*/2, &on_maps);

      EXPECT_EQ(off.positive, on.positive) << name << " seed " << seed;
      EXPECT_EQ(off.negative, on.negative) << name << " seed " << seed;
      // The deterministic delivery contract holds for both engines, so the
      // mapping sequences must be byte-identical, not just the totals.
      EXPECT_EQ(off_maps, on_maps) << name << " seed " << seed;
      EXPECT_TRUE(on_wl.graph.same_structure(off_wl.graph))
          << name << " seed " << seed;
    }
  }
}

TEST(InvariantStageFuzz, CountersConserveAcrossSeeds) {
  std::uint64_t total_certified_batches = 0;
  for (std::uint64_t seed : {2u, 6u, 10u, 18u, 27u, 40u}) {
    // Single-label workloads whose stream rebuilds most of the graph: the
    // lone label triple starts deficient (need == query edges, count ==
    // the few surviving initial edges), so early batches are certifiable.
    SmallWorkload wl =
        make_workload(seed, /*n=*/24, /*m=*/40, /*vlabels=*/1, /*elabels=*/1,
                      /*query_size=*/6, /*insert_fraction=*/0.95,
                      /*delete_fraction=*/0.3);
    auto alg = csm::make_algorithm("graphflow");
    ASSERT_NE(alg, nullptr);
    const StreamResult r = run_stream(*alg, wl, true, /*threads=*/2);

    // Every batch is checked; every certified lane is tallied exactly once.
    EXPECT_EQ(r.invariant.batches_checked, r.batches) << "seed " << seed;
    EXPECT_EQ(r.classifier.safe_invariant, r.invariant.lanes_certified)
        << "seed " << seed;
    EXPECT_LE(r.invariant.batches_certified, r.invariant.batches_checked);
    // Exactly one classification route per batch.
    EXPECT_EQ(r.backend_cpu.batches + r.backend_wide.batches +
                  r.invariant.batches_certified,
              r.batches)
        << "seed " << seed;
    total_certified_batches += r.invariant.batches_certified;
  }
  // The sweep must actually exercise the certificate, or the equivalence
  // tests above prove nothing. Streams start from a sparse prefix where
  // deficits are common, so certified batches should exist.
  EXPECT_GT(total_certified_batches, 0u)
      << "no batch was ever certified — the stage is dead code in this sweep";
}

// Deterministic certified path: a 3-edge single-label path query over an
// initially empty graph — need[(0,0,0)] == 3, so a 2-insert batch is
// certifiable exactly while count + 2 < 3, i.e. for the very first batch.
TEST(InvariantStage, DeterministicBatchCertificationThroughTheEngine) {
  const QueryGraph q({0, 0, 0, 0}, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}});

  const auto build_stream = [] {
    // Endpoint-disjoint pairs first so strict mode can apply both lanes of
    // the certified batch, then the stitching edges that share endpoints.
    std::vector<GraphUpdate> s;
    for (graph::VertexId v = 0; v + 1 < 8; v += 2)
      s.push_back(GraphUpdate::insert_edge(v, v + 1, 0));
    for (graph::VertexId v = 1; v + 1 < 8; v += 2)
      s.push_back(GraphUpdate::insert_edge(v, v + 1, 0));
    return s;
  };

  auto on_alg = csm::make_algorithm("graphflow");
  auto off_alg = csm::make_algorithm("graphflow");
  ASSERT_NE(on_alg, nullptr);
  ASSERT_NE(off_alg, nullptr);

  const auto run = [&](csm::CsmAlgorithm& alg, bool invariant_on) {
    DataGraph g;
    for (int v = 0; v < 8; ++v) (void)g.add_vertex(0);
    Config cfg;
    cfg.threads = 2;
    cfg.batch_size = 2;
    cfg.invariant_stage = invariant_on;
    ParaCosm pc(alg, q, g, cfg);
    const std::vector<GraphUpdate> stream = build_stream();
    return pc.process_stream(stream);
  };

  const StreamResult on = run(*on_alg, true);
  const StreamResult off = run(*off_alg, false);

  EXPECT_GE(on.invariant.batches_certified, 1u)
      << "the first 2-insert batch (count 0 + 2 < need 3) must certify";
  EXPECT_GE(on.invariant.lanes_certified, 2u);
  EXPECT_EQ(on.classifier.safe_invariant, on.invariant.lanes_certified);
  EXPECT_EQ(on.backend_cpu.batches + on.backend_wide.batches +
                on.invariant.batches_certified,
            on.batches);
  // Soundness on this exact trace: identical ΔM with and without the stage.
  EXPECT_EQ(on.positive, off.positive);
  EXPECT_EQ(on.negative, off.negative);
}

// --------------------------------------- incremental vs recomputed counts

using TripleKey = std::tuple<graph::Label, graph::Label, graph::Label>;

[[nodiscard]] std::map<TripleKey, std::int64_t> counts_of(
    const InvariantStage& s) {
  std::map<TripleKey, std::int64_t> m;
  for (const auto& t : s.triples()) m[{t.lmin, t.lmax, t.elabel}] = t.count;
  return m;
}

TEST(InvariantStageFuzz, IncrementalCountsEqualRebuildAfterDeleteHeavyStreams) {
  for (std::uint64_t seed : {3u, 8u, 13u, 29u}) {
    // Delete-heavy: most of the stream removes edges, including via vertex
    // removals' cascades (make_mixed_stream emits edge ops; the engine's
    // vertex paths are covered by the relabel/removal unit tests).
    SmallWorkload wl =
        make_workload(seed, /*n=*/32, /*m=*/72, /*vlabels=*/3, /*elabels=*/2,
                      /*query_size=*/4, /*insert_fraction=*/0.2,
                      /*delete_fraction=*/0.8);
    auto alg = csm::make_algorithm("graphflow");
    ASSERT_NE(alg, nullptr);

    Config cfg;
    cfg.threads = 2;
    cfg.batch_size = 4;
    cfg.invariant_stage = true;
    ParaCosm pc(*alg, wl.query, wl.graph, cfg);
    ASSERT_NE(pc.invariant_stage(), nullptr);
    (void)pc.process_stream(wl.stream);

    // A fresh stage built over the final graph is the recompute oracle.
    const InvariantStage oracle(wl.query, wl.graph,
                                !alg->uses_edge_labels());
    EXPECT_EQ(counts_of(*pc.invariant_stage()), counts_of(oracle))
        << "seed " << seed
        << ": O(1) maintenance drifted from the true counts";
  }
}

TEST(InvariantStage, VertexRemovalCascadeKeepsCountsExact) {
  SmallWorkload wl = make_workload(/*seed=*/17);
  auto alg = csm::make_algorithm("graphflow");
  ASSERT_NE(alg, nullptr);
  Config cfg;
  cfg.threads = 2;
  cfg.invariant_stage = true;
  ParaCosm pc(*alg, wl.query, wl.graph, cfg);
  ASSERT_NE(pc.invariant_stage(), nullptr);

  // Remove every other live vertex through the engine (cascading edge
  // removals route through process_edge's maintenance hooks).
  std::vector<graph::VertexId> victims;
  for (graph::VertexId v = 0; v < wl.graph.vertex_capacity(); v += 2)
    if (wl.graph.has_vertex(v)) victims.push_back(v);
  for (graph::VertexId v : victims)
    (void)pc.process(GraphUpdate::remove_vertex(v));

  const InvariantStage oracle(wl.query, wl.graph, !alg->uses_edge_labels());
  EXPECT_EQ(counts_of(*pc.invariant_stage()), counts_of(oracle));
}

// ----------------------------------------------------------------- gating

TEST(InvariantStageGate, AdsAlgorithmsAndPaperModeDisableTheStage) {
  SmallWorkload wl = make_workload(/*seed=*/4);

  {
    auto ads_alg = csm::make_algorithm("turboflux");
    ASSERT_NE(ads_alg, nullptr);
    ASSERT_TRUE(ads_alg->has_ads());
    Config cfg;
    cfg.invariant_stage = true;
    SmallWorkload w = wl;
    ParaCosm pc(*ads_alg, w.query, w.graph, cfg);
    EXPECT_EQ(pc.invariant_stage(), nullptr)
        << "an ADS-bearing algorithm must never get the stage";
    const StreamResult r = pc.process_stream(w.stream);
    EXPECT_EQ(r.invariant.batches_checked, 0u);
    EXPECT_EQ(r.classifier.safe_invariant, 0u);
  }
  {
    auto alg = csm::make_algorithm("graphflow");
    ASSERT_NE(alg, nullptr);
    Config cfg;
    cfg.invariant_stage = true;
    cfg.batch_mode = BatchMode::kPaper;
    SmallWorkload w = wl;
    ParaCosm pc(*alg, w.query, w.graph, cfg);
    EXPECT_EQ(pc.invariant_stage(), nullptr)
        << "kPaper duplicate lanes would corrupt sequential maintenance";
  }
  {
    auto alg = csm::make_algorithm("graphflow");
    ASSERT_NE(alg, nullptr);
    Config cfg;  // invariant_stage defaults to false
    SmallWorkload w = wl;
    ParaCosm pc(*alg, w.query, w.graph, cfg);
    EXPECT_EQ(pc.invariant_stage(), nullptr) << "the knob defaults off";
  }
  {
    auto alg = csm::make_algorithm("graphflow");
    ASSERT_NE(alg, nullptr);
    Config cfg;
    cfg.invariant_stage = true;
    SmallWorkload w = wl;
    ParaCosm pc(*alg, w.query, w.graph, cfg);
    EXPECT_NE(pc.invariant_stage(), nullptr)
        << "index-free + kStrict is exactly where the stage engages";
  }
}

}  // namespace
}  // namespace paracosm::engine
