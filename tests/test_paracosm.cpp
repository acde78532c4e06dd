// End-to-end equivalence of the parallel framework with the sequential
// engine: for every algorithm, thread count, split depth and batch mode, the
// ParaCOSM-processed stream must produce exactly the sequential ΔM totals,
// and the executors' bookkeeping must add up.
#include <gtest/gtest.h>

#include "paracosm/paracosm.hpp"
#include "csm/oracle.hpp"
#include "paracosm/classifier.hpp"
#include "tests/test_support.hpp"

namespace paracosm::testing {
namespace {

using engine::BatchMode;
using engine::Scheduler;
using engine::Config;
using engine::ParaCosm;
using engine::StreamResult;

std::pair<std::uint64_t, std::uint64_t> sequential_totals(const std::string& name,
                                                          const SmallWorkload& wl) {
  auto alg = csm::make_algorithm(name);
  graph::DataGraph g = wl.graph;
  csm::SequentialEngine eng(*alg, wl.query, g);
  std::uint64_t pos = 0, neg = 0;
  for (const auto& upd : wl.stream) {
    const auto out = eng.process(upd);
    pos += out.positive;
    neg += out.negative;
  }
  return {pos, neg};
}

struct PcCase {
  std::string algorithm;
  unsigned threads;
  std::uint32_t split_depth;
  bool inter;
  BatchMode mode;
  std::uint64_t seed;
};

class ParaCosmEquivalence : public ::testing::TestWithParam<PcCase> {};

TEST_P(ParaCosmEquivalence, StreamTotalsMatchSequential) {
  const PcCase& c = GetParam();
  SmallWorkload wl = make_workload(c.seed, 36, 90, 3, 2, 5);
  const auto [pos, neg] = sequential_totals(c.algorithm, wl);

  auto alg = csm::make_algorithm(c.algorithm);
  Config cfg;
  cfg.threads = c.threads;
  cfg.split_depth = c.split_depth;
  cfg.inter_parallelism = c.inter;
  cfg.batch_mode = c.mode;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const StreamResult result = pc.process_stream(wl.stream);

  EXPECT_EQ(result.positive, pos) << "positive matches diverge";
  EXPECT_EQ(result.negative, neg) << "negative matches diverge";
  EXPECT_FALSE(result.timed_out);
  if (c.inter) {
    EXPECT_GT(result.batches, 0u);
    EXPECT_EQ(result.classifier.total,
              result.safe_applied + result.unsafe_sequential);
  }
}

std::vector<PcCase> equivalence_cases() {
  std::vector<PcCase> cases;
  std::uint64_t seed = 101;
  for (const auto name : csm::algorithm_names()) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      cases.push_back({std::string(name), threads, 3, true, BatchMode::kStrict, seed});
      cases.push_back({std::string(name), threads, 3, false, BatchMode::kStrict, seed});
      ++seed;
    }
    cases.push_back({std::string(name), 4, 0, true, BatchMode::kStrict, seed++});
    cases.push_back({std::string(name), 4, 16, true, BatchMode::kStrict, seed++});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParaCosmEquivalence,
                         ::testing::ValuesIn(equivalence_cases()),
                         [](const ::testing::TestParamInfo<PcCase>& info) {
                           const PcCase& c = info.param;
                           return c.algorithm + "_t" + std::to_string(c.threads) +
                                  "_d" + std::to_string(c.split_depth) +
                                  (c.inter ? "_inter" : "_inner") + "_s" +
                                  std::to_string(c.seed);
                         });

TEST(ParaCosmSingleUpdate, ParallelSearchEqualsSequentialPerUpdate) {
  SmallWorkload wl = make_workload(777, 40, 120, 2, 1, 5);
  auto seq_alg = csm::make_algorithm("graphflow");
  graph::DataGraph g1 = wl.graph;
  csm::SequentialEngine eng(*seq_alg, wl.query, g1);

  auto par_alg = csm::make_algorithm("graphflow");
  Config cfg;
  cfg.threads = 4;
  cfg.split_depth = 2;
  graph::DataGraph g2 = wl.graph;
  ParaCosm pc(*par_alg, wl.query, g2, cfg);

  for (const auto& upd : wl.stream) {
    const auto a = eng.process(upd);
    const auto b = pc.process(upd);
    EXPECT_EQ(a.positive, b.positive);
    EXPECT_EQ(a.negative, b.negative);
    EXPECT_EQ(a.applied, b.applied);
  }
  EXPECT_TRUE(g1.same_structure(g2));
}

TEST(ParaCosmLoadBalance, StaticPartitionStillCorrect) {
  SmallWorkload wl = make_workload(888, 36, 100, 2, 1, 4);
  const auto [pos, neg] = sequential_totals("turboflux", wl);
  auto alg = csm::make_algorithm("turboflux");
  Config cfg;
  cfg.threads = 4;
  cfg.scheduler = Scheduler::kStatic;  // Figure 10 "unbalanced" baseline
  cfg.inter_parallelism = false;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const StreamResult result = pc.process_stream(wl.stream);
  EXPECT_EQ(result.positive, pos);
  EXPECT_EQ(result.negative, neg);
}

TEST(ParaCosmTimeout, ExpiredDeadlineFlagsTimeoutAndStops) {
  SmallWorkload wl = make_workload(999, 48, 140, 1, 1, 5);
  auto alg = csm::make_algorithm("graphflow");
  Config cfg;
  cfg.threads = 2;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const auto past = util::Clock::now() - std::chrono::seconds(1);
  const StreamResult result = pc.process_stream(wl.stream, past);
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.updates_processed, wl.stream.size());
}

TEST(ParaCosmStats, WorkerAccountingAddsUp) {
  SmallWorkload wl = make_workload(1234, 40, 120, 2, 1, 5);
  auto alg = csm::make_algorithm("graphflow");
  Config cfg;
  cfg.threads = 4;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const StreamResult result = pc.process_stream(wl.stream);
  EXPECT_EQ(result.stats.workers.size(), 4u);
  EXPECT_GE(result.stats.simulated_makespan_ns(), result.stats.serial_ns);
  EXPECT_GE(result.stats.sequential_equivalent_ns(),
            result.stats.simulated_makespan_ns());
  std::uint64_t worker_matches = 0;
  for (const auto& w : result.stats.workers) worker_matches += w.matches;
  // Matches found by workers (inner executor) are those of unsafe updates.
  EXPECT_LE(worker_matches, result.delta_matches());
}

TEST(ParaCosmVertexOps, VertexInsertAndCascadingRemove) {
  SmallWorkload wl = make_workload(555, 24, 60, 2, 1, 4, 0.0, 0.0);
  auto alg = csm::make_algorithm("symbi");
  graph::DataGraph g = wl.graph;
  Config cfg;
  cfg.threads = 2;
  ParaCosm pc(*alg, wl.query, g, cfg);

  // Count matches through vertex 0's edges by deleting the vertex.
  graph::DataGraph mirror = g;
  const std::uint64_t before = csm::count_all_matches(wl.query, mirror);
  mirror.remove_vertex(0);
  const std::uint64_t after = csm::count_all_matches(wl.query, mirror);

  const auto out = pc.process(graph::GraphUpdate::remove_vertex(0));
  EXPECT_EQ(out.negative, before - after);
  EXPECT_FALSE(g.has_vertex(0));

  const auto out2 = pc.process(graph::GraphUpdate::insert_vertex(9000, 1));
  EXPECT_TRUE(out2.applied);
  EXPECT_TRUE(g.has_vertex(9000));
}

// The work-stealing scheduler must be a drop-in replacement: identical
// stream totals for every algorithm.
TEST(ParaCosmScheduler, WorkStealingMatchesSequential) {
  SmallWorkload wl = make_workload(6060, 36, 90, 2, 1, 5);
  for (const auto name : csm::algorithm_names()) {
    const auto [pos, neg] = sequential_totals(std::string(name), wl);
    auto alg = csm::make_algorithm(name);
    Config cfg;
    cfg.threads = 4;
    cfg.scheduler = Scheduler::kWorkStealing;
    graph::DataGraph g = wl.graph;
    ParaCosm pc(*alg, wl.query, g, cfg);
    const StreamResult r = pc.process_stream(wl.stream);
    EXPECT_EQ(r.positive, pos) << name;
    EXPECT_EQ(r.negative, neg) << name;
  }
}

// Paper-faithful batch mode: on these deterministic workloads (where the
// rare compositional corner case does not occur) it must agree with the
// sequential totals too, and never defer for conflicts.
TEST(ParaCosmBatchModes, PaperModeAgreesOnStandardWorkloads) {
  for (const std::uint64_t seed : {2024ULL, 2025ULL}) {
    SmallWorkload wl = make_workload(seed, 36, 90, 3, 2, 5);
    const auto [pos, neg] = sequential_totals("symbi", wl);
    auto alg = csm::make_algorithm("symbi");
    Config cfg;
    cfg.threads = 4;
    cfg.batch_mode = BatchMode::kPaper;
    graph::DataGraph g = wl.graph;
    ParaCosm pc(*alg, wl.query, g, cfg);
    const StreamResult r = pc.process_stream(wl.stream);
    EXPECT_EQ(r.positive, pos) << "seed " << seed;
    EXPECT_EQ(r.negative, neg) << "seed " << seed;
    EXPECT_EQ(r.deferred_conflicts, 0u);
  }
}

// Figure 12 and Table 4 are read from the per-stage ClassifierStats. With one
// update per batch every classified update is committed, so the engine's
// counts must equal the reference three-stage classifier tallied on a
// sequential mirror just before each update is processed.
class ParaCosmClassifierStats
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(ParaCosmClassifierStats, StageCountsMatchReferenceClassifier) {
  const auto& [name, seed] = GetParam();
  SmallWorkload wl = make_workload(seed, 36, 90, 3, 2, 4);

  auto ref_alg = csm::make_algorithm(name);
  graph::DataGraph mirror = wl.graph;
  csm::SequentialEngine eng(*ref_alg, wl.query, mirror);
  const engine::UpdateClassifier reference(wl.query, mirror, *ref_alg);
  engine::ClassifierStats want;
  for (const auto& upd : wl.stream) {
    ++want.total;
    switch (reference.classify(upd)) {
      case engine::UpdateClass::kSafeLabel: ++want.safe_label; break;
      case engine::UpdateClass::kSafeDegree: ++want.safe_degree; break;
      case engine::UpdateClass::kSafeAds: ++want.safe_ads; break;
      case engine::UpdateClass::kUnsafe: ++want.unsafe_updates; break;
    }
    (void)eng.process(upd);
  }

  auto alg = csm::make_algorithm(name);
  Config cfg;
  cfg.threads = 1;
  cfg.batch_size = 1;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);
  const StreamResult r = pc.process_stream(wl.stream);
  EXPECT_EQ(r.classifier.total, want.total);
  EXPECT_EQ(r.classifier.safe_label, want.safe_label);
  EXPECT_EQ(r.classifier.safe_degree, want.safe_degree);
  EXPECT_EQ(r.classifier.safe_ads, want.safe_ads);
  EXPECT_EQ(r.classifier.unsafe_updates, want.unsafe_updates);
  EXPECT_GT(want.safe(), 0u) << "stream exercised no filter stage";
  EXPECT_GT(want.unsafe_updates, 0u) << "stream exercised no unsafe update";
}

std::vector<std::string> algorithm_name_strings() {
  std::vector<std::string> names;
  for (const auto name : csm::algorithm_names()) names.emplace_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ParaCosmClassifierStats,
    ::testing::Combine(::testing::ValuesIn(algorithm_name_strings()),
                       ::testing::Values(3ULL, 14ULL, 25ULL)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" + std::to_string(std::get<1>(info.param));
    });

// Strict mode must defer the second of two safe updates sharing an endpoint
// within one batch — and still produce the correct result.
TEST(ParaCosmBatchModes, StrictModeDefersEndpointConflicts) {
  // Query over labels (0,1); data edges between label-5 vertices are always
  // stage-1 safe. Three safe inserts share vertex `hub`.
  graph::DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  const auto hub = g.add_vertex(5);
  const auto a = g.add_vertex(5);
  const auto b = g.add_vertex(5);
  const auto c = g.add_vertex(5);
  g.add_edge(0, 1, 0);
  graph::QueryGraph q({0, 1}, {{0, 1, 0}});

  const std::vector<graph::GraphUpdate> stream{
      graph::GraphUpdate::insert_edge(hub, a, 0),
      graph::GraphUpdate::insert_edge(hub, b, 0),
      graph::GraphUpdate::insert_edge(hub, c, 0),
  };
  auto alg = csm::make_algorithm("graphflow");
  Config cfg;
  cfg.threads = 2;
  cfg.batch_size = 3;
  cfg.batch_mode = BatchMode::kStrict;
  ParaCosm pc(*alg, q, g, cfg);
  const StreamResult r = pc.process_stream(stream);
  EXPECT_EQ(r.deferred_conflicts, 2u);  // one per re-batched suffix
  EXPECT_EQ(r.updates_processed, 3u);
  EXPECT_EQ(r.delta_matches(), 0u);
  EXPECT_TRUE(g.has_edge(hub, a));
  EXPECT_TRUE(g.has_edge(hub, b));
  EXPECT_TRUE(g.has_edge(hub, c));
}

// The match callback must deliver every ΔM mapping exactly once, and each
// delivered mapping must be a genuine subgraph-isomorphism embedding.
TEST(ParaCosmCallback, DeliversValidMappingsExactlyOnce) {
  SmallWorkload wl = make_workload(31415, 40, 110, 2, 1, 4, 0.3, 0.0);
  auto alg = csm::make_algorithm("turboflux");
  Config cfg;
  cfg.threads = 4;
  cfg.split_depth = 2;
  graph::DataGraph g = wl.graph;
  ParaCosm pc(*alg, wl.query, g, cfg);

  std::uint64_t delivered = 0;
  bool all_valid = true;
  pc.set_match_callback([&](std::span<const csm::Assignment> mapping) {
    ++delivered;
    if (mapping.size() != wl.query.num_vertices()) all_valid = false;
    // Injectivity + full edge preservation.
    std::vector<graph::VertexId> image(wl.query.num_vertices());
    for (const auto& a : mapping) image[a.qv] = a.dv;
    for (std::size_t i = 0; i < mapping.size(); ++i)
      for (std::size_t j = i + 1; j < mapping.size(); ++j)
        if (mapping[i].dv == mapping[j].dv) all_valid = false;
    for (const auto& e : wl.query.edges()) {
      const auto el = g.edge_label(image[e.u], image[e.v]);
      if (!el || *el != e.elabel) all_valid = false;
    }
  });

  const StreamResult r = pc.process_stream(wl.stream);
  EXPECT_EQ(delivered, r.delta_matches());
  EXPECT_TRUE(all_valid);
}

// Long-stream stress: interleave edge inserts/removes and vertex ops, and
// require the framework's final graph and cumulative ΔM to agree with the
// sequential engine on the identical stream.
TEST(ParaCosmStress, MixedOpsLongStreamMatchesSequential) {
  util::Rng rng(4242);
  graph::DataGraph base = graph::generate_erdos_renyi(48, 110, 3, 2, rng);
  auto q = graph::extract_query(base, 4, rng);
  ASSERT_TRUE(q.has_value());

  // Build a stream with all four op kinds (fresh vertices get connected).
  std::vector<graph::GraphUpdate> stream;
  graph::DataGraph sim = base;  // only to pick valid ops
  graph::VertexId next_vertex = sim.vertex_capacity();
  for (int i = 0; i < 400; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.55) {
      const auto u = static_cast<graph::VertexId>(rng.bounded(sim.vertex_capacity()));
      const auto v = static_cast<graph::VertexId>(rng.bounded(sim.vertex_capacity()));
      const auto upd = graph::GraphUpdate::insert_edge(
          u, v, static_cast<graph::Label>(rng.bounded(2)));
      stream.push_back(upd);
      sim.apply(upd);
    } else if (roll < 0.85) {
      const auto edges = sim.edge_list();
      if (edges.empty()) continue;
      const auto& e = edges[rng.bounded(edges.size())];
      stream.push_back(graph::GraphUpdate::remove_edge(e.u, e.v, e.elabel));
      sim.remove_edge(e.u, e.v);
    } else if (roll < 0.95) {
      const auto upd = graph::GraphUpdate::insert_vertex(
          next_vertex++, static_cast<graph::Label>(rng.bounded(3)));
      stream.push_back(upd);
      sim.apply(upd);
    } else {
      const auto v = static_cast<graph::VertexId>(rng.bounded(sim.vertex_capacity()));
      if (!sim.has_vertex(v)) continue;
      stream.push_back(graph::GraphUpdate::remove_vertex(v));
      sim.remove_vertex(v);
    }
  }

  for (const auto name : csm::algorithm_names()) {
    auto seq_alg = csm::make_algorithm(name);
    graph::DataGraph g1 = base;
    csm::SequentialEngine eng(*seq_alg, *q, g1);
    std::uint64_t seq_pos = 0, seq_neg = 0;
    for (const auto& upd : stream) {
      const auto out = eng.process(upd);
      seq_pos += out.positive;
      seq_neg += out.negative;
    }

    auto par_alg = csm::make_algorithm(name);
    graph::DataGraph g2 = base;
    Config cfg;
    cfg.threads = 3;
    cfg.split_depth = 2;
    ParaCosm pc(*par_alg, *q, g2, cfg);
    const StreamResult r = pc.process_stream(stream);

    EXPECT_EQ(r.positive, seq_pos) << name;
    EXPECT_EQ(r.negative, seq_neg) << name;
    EXPECT_TRUE(g1.same_structure(g2)) << name;
  }
}

}  // namespace
}  // namespace paracosm::testing
