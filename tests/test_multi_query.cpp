// Multi-query engine: per-query totals must match independent single-query
// sequential runs over the same stream, for heterogeneous algorithm mixes.
#include <gtest/gtest.h>

#include "paracosm/multi_query.hpp"
#include "tests/test_support.hpp"

namespace paracosm::testing {
namespace {

using engine::Config;
using engine::MultiQueryEngine;
using engine::MultiStreamResult;

struct QuerySpec {
  std::string algorithm;
  graph::QueryGraph query;
};

std::pair<std::uint64_t, std::uint64_t> single_query_totals(
    const graph::DataGraph& base, const graph::QueryGraph& q,
    const std::string& algorithm, const std::vector<graph::GraphUpdate>& stream) {
  auto alg = csm::make_algorithm(algorithm);
  graph::DataGraph g = base;
  csm::SequentialEngine eng(*alg, q, g);
  std::uint64_t pos = 0, neg = 0;
  for (const auto& upd : stream) {
    const auto out = eng.process(upd);
    pos += out.positive;
    neg += out.negative;
  }
  return {pos, neg};
}

TEST(MultiQueryEngine, MatchesIndependentSingleQueryRuns) {
  util::Rng rng(777);
  graph::DataGraph base = graph::generate_erdos_renyi(40, 100, 3, 2, rng);
  std::vector<QuerySpec> specs;
  for (const auto name : {"graphflow", "symbi", "turboflux"}) {
    const auto q = graph::extract_query(base, 4, rng);
    ASSERT_TRUE(q.has_value());
    specs.push_back({std::string(name), *q});
  }
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  // Expected: independent sequential runs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (const auto& spec : specs)
    expected.push_back(single_query_totals(base, spec.query, spec.algorithm, stream));

  // Multi-query engine over one shared graph.
  graph::DataGraph g = base;
  Config cfg;
  cfg.threads = 3;
  MultiQueryEngine engine(g, cfg);
  for (const auto& spec : specs) engine.add_query(spec.algorithm, spec.query);
  ASSERT_EQ(engine.num_queries(), specs.size());
  const MultiStreamResult result = engine.process_stream(stream);

  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.updates_processed, stream.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.positive[i], expected[i].first) << specs[i].algorithm;
    EXPECT_EQ(result.negative[i], expected[i].second) << specs[i].algorithm;
  }
}

// Config::scheduler reaches the multi-query engine's executor. At one thread
// the central queue never re-splits (its only worker is never idle while it
// works) and the stealing policy always primes its deque; ΔM is the same.
TEST(MultiQueryEngine, HonorsConfiguredScheduler) {
  util::Rng rng(4242);
  graph::DataGraph base = graph::generate_erdos_renyi(40, 140, 2, 1, rng);
  std::vector<QuerySpec> specs;
  for (const auto name : {"graphflow", "symbi", "turboflux"}) {
    const auto q = graph::extract_query(base, 5, rng);
    ASSERT_TRUE(q.has_value());
    specs.push_back({std::string(name), *q});
  }
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  std::vector<MultiStreamResult> results;
  for (const auto scheduler :
       {engine::Scheduler::kCentralQueue, engine::Scheduler::kWorkStealing}) {
    graph::DataGraph g = base;
    Config cfg;
    cfg.threads = 1;
    cfg.scheduler = scheduler;
    MultiQueryEngine engine(g, cfg);
    for (const auto& spec : specs) engine.add_query(spec.algorithm, spec.query);
    results.push_back(engine.process_stream(stream));
  }
  const MultiStreamResult& central = results[0];
  const MultiStreamResult& stealing = results[1];
  EXPECT_EQ(central.stats.total_offloads(), 0u);
  EXPECT_GT(stealing.stats.total_offloads(), 0u);
  EXPECT_GT(central.total_matches(), 0u);
  EXPECT_EQ(stealing.positive, central.positive);
  EXPECT_EQ(stealing.negative, central.negative);
}

TEST(MultiQueryEngine, SafeOnlyWhenSafeForEveryQuery) {
  // Query 1 matches label pair (0,1); query 2 matches (2,3). An edge with
  // labels (2,3) is unsafe for query 2 even though query 1 filters it.
  graph::DataGraph g;
  for (const graph::Label l : {0u, 1u, 2u, 3u}) g.add_vertex(l);
  Config cfg;
  cfg.threads = 2;
  MultiQueryEngine engine(g, cfg);
  engine.add_query("graphflow", graph::QueryGraph({0, 1}, {{0, 1, 0}}));
  engine.add_query("graphflow", graph::QueryGraph({2, 3}, {{0, 1, 0}}));

  const std::vector<graph::GraphUpdate> stream{
      graph::GraphUpdate::insert_edge(2, 3, 0)};
  const MultiStreamResult result = engine.process_stream(stream);
  EXPECT_EQ(result.unsafe_sequential, 1u);
  EXPECT_EQ(result.positive[0], 0u);
  EXPECT_EQ(result.positive[1], 1u);
}

// Config::inter_parallelism and Config::batch_mode reach the engine. With
// inter-update parallelism off every update takes the sequential path (no
// batches, nothing batch-applied) and ΔM is unchanged; paper mode drops the
// strict endpoint-conflict deferral on three safe inserts sharing a hub.
TEST(MultiQueryEngine, HonorsInterParallelismAndBatchMode) {
  util::Rng rng(4321);
  graph::DataGraph base = graph::generate_erdos_renyi(36, 90, 3, 2, rng);
  std::vector<graph::QueryGraph> queries;
  for (int i = 0; i < 2; ++i) {
    const auto q = graph::extract_query(base, 4, rng);
    ASSERT_TRUE(q.has_value());
    queries.push_back(*q);
  }
  const auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);
  const auto run = [&](const bool inter) {
    graph::DataGraph g = base;
    Config cfg;
    cfg.threads = 2;
    cfg.inter_parallelism = inter;
    MultiQueryEngine engine(g, cfg);
    engine.add_query("symbi", queries[0]);
    engine.add_query("graphflow", queries[1]);
    return engine.process_stream(stream);
  };
  const MultiStreamResult batched = run(true);
  const MultiStreamResult sequential = run(false);
  EXPECT_GT(batched.batches, 0u);
  EXPECT_GT(batched.safe_applied, 0u);
  EXPECT_EQ(sequential.batches, 0u);
  EXPECT_EQ(sequential.safe_applied, 0u);
  EXPECT_EQ(sequential.updates_processed, stream.size());
  EXPECT_GT(batched.total_matches(), 0u);
  EXPECT_EQ(sequential.positive, batched.positive);
  EXPECT_EQ(sequential.negative, batched.negative);

  // The stream of ParaCosmBatchModes.StrictModeDefersEndpointConflicts.
  graph::DataGraph hub_graph;
  hub_graph.add_vertex(0);
  hub_graph.add_vertex(1);
  const auto hub = hub_graph.add_vertex(5);
  const auto a = hub_graph.add_vertex(5);
  const auto b = hub_graph.add_vertex(5);
  const auto c = hub_graph.add_vertex(5);
  hub_graph.add_edge(0, 1, 0);
  const std::vector<graph::GraphUpdate> hub_stream{
      graph::GraphUpdate::insert_edge(hub, a, 0),
      graph::GraphUpdate::insert_edge(hub, b, 0),
      graph::GraphUpdate::insert_edge(hub, c, 0),
  };
  for (const engine::BatchMode mode : {engine::BatchMode::kPaper, engine::BatchMode::kStrict}) {
    graph::DataGraph g = hub_graph;
    Config cfg;
    cfg.threads = 2;
    cfg.batch_size = 3;
    cfg.batch_mode = mode;
    MultiQueryEngine engine(g, cfg);
    engine.add_query("graphflow", graph::QueryGraph({0, 1}, {{0, 1, 0}}));
    const MultiStreamResult r = engine.process_stream(hub_stream);
    const bool strict = mode == engine::BatchMode::kStrict;
    EXPECT_EQ(r.deferred_conflicts, strict ? 2u : 0u) << (strict ? "strict" : "paper");
    EXPECT_EQ(r.updates_processed, 3u);
    EXPECT_EQ(r.total_matches(), 0u);
    EXPECT_EQ(g.degree(hub), 3u);
  }
}

// With no registration every edge update is trivially safe, but vertex ops
// and structurally invalid edges still need the sequential path: the batch
// apply knows only edge inserts and removals.
TEST(MultiQueryEngine, EmptyCatalogueAppliesVertexOps) {
  graph::DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  Config cfg;
  cfg.threads = 2;
  cfg.batch_size = 4;
  MultiQueryEngine engine(g, cfg);
  const std::vector<graph::GraphUpdate> stream{
      graph::GraphUpdate::insert_vertex(7, 1),
      graph::GraphUpdate::insert_edge(7, 0, 0),
      graph::GraphUpdate::insert_edge(0, 1, 0),
      graph::GraphUpdate::remove_vertex(1),
  };
  const MultiStreamResult r = engine.process_stream(stream);
  EXPECT_EQ(r.updates_processed, stream.size());
  EXPECT_TRUE(g.has_vertex(7));
  EXPECT_TRUE(g.has_edge(7, 0));
  EXPECT_FALSE(g.has_vertex(1));
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(MultiQueryEngine, HandlesVertexOps) {
  util::Rng rng(888);
  graph::DataGraph base = graph::generate_erdos_renyi(24, 60, 2, 1, rng);
  const auto q = graph::extract_query(base, 3, rng);
  ASSERT_TRUE(q.has_value());

  std::vector<graph::GraphUpdate> stream{
      graph::GraphUpdate::insert_vertex(500, 0),
      graph::GraphUpdate::insert_edge(500, 0, 0),
      graph::GraphUpdate::remove_vertex(500),
  };
  const auto expected = single_query_totals(base, *q, "symbi", stream);

  graph::DataGraph g = base;
  MultiQueryEngine engine(g, Config{.threads = 2});
  engine.add_query("symbi", *q);
  const MultiStreamResult result = engine.process_stream(stream);
  EXPECT_EQ(result.positive[0], expected.first);
  EXPECT_EQ(result.negative[0], expected.second);
  EXPECT_FALSE(g.has_vertex(500));
}

TEST(MultiQueryEngine, RejectsUnknownAlgorithm) {
  graph::DataGraph g;
  g.add_vertex(0);
  g.add_vertex(1);
  MultiQueryEngine engine(g);
  EXPECT_THROW(engine.add_query("nope", graph::QueryGraph({0, 1}, {{0, 1, 0}})),
               std::invalid_argument);
}

TEST(MultiQueryEngine, DuplicateQueriesShareAClassAndMatch) {
  util::Rng rng(991);
  graph::DataGraph base = graph::generate_erdos_renyi(36, 90, 3, 2, rng);
  const auto qa = graph::extract_query(base, 4, rng);
  const auto qb = graph::extract_query(base, 3, rng);
  ASSERT_TRUE(qa.has_value() && qb.has_value());
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  const auto expect_a = single_query_totals(base, *qa, "symbi", stream);
  const auto expect_b = single_query_totals(base, *qb, "graphflow", stream);

  graph::DataGraph g = base;
  MultiQueryEngine engine(g, Config{.threads = 2});
  const std::size_t h0 = engine.add_query("symbi", *qa);
  const std::size_t h1 = engine.add_query("symbi", *qa);   // duplicate: shared
  const std::size_t h2 = engine.add_query("graphflow", *qb);
  const std::size_t h3 = engine.add_query("graphflow", *qa);  // same pattern,
                                                              // other algorithm
  EXPECT_EQ(engine.num_queries(), 4u);
  EXPECT_EQ(engine.num_classes(), 3u);  // h0+h1 share; h2, h3 are their own

  const MultiStreamResult r = engine.process_stream(stream);
  EXPECT_EQ(r.positive[h0], expect_a.first);
  EXPECT_EQ(r.negative[h0], expect_a.second);
  EXPECT_EQ(r.positive[h1], expect_a.first);   // fan-out, not re-search
  EXPECT_EQ(r.negative[h1], expect_a.second);
  EXPECT_EQ(r.positive[h2], expect_b.first);
  EXPECT_EQ(r.negative[h2], expect_b.second);
  EXPECT_EQ(r.positive[h3], expect_a.first);   // cross-algorithm agreement
  EXPECT_EQ(r.negative[h3], expect_a.second);
  EXPECT_GT(r.mq.searches_shared, 0u);  // the duplicate rode shared searches
}

TEST(MultiQueryEngine, SharingOffMatchesSharingOn) {
  util::Rng rng(414);
  graph::DataGraph base = graph::generate_erdos_renyi(32, 80, 3, 2, rng);
  const auto q = graph::extract_query(base, 4, rng);
  ASSERT_TRUE(q.has_value());
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  graph::DataGraph g1 = base, g2 = base;
  MultiQueryEngine shared(g1, Config{.threads = 2});
  MultiQueryEngine independent(g2, Config{.threads = 2});
  independent.set_shared_evaluation(false);
  for (MultiQueryEngine* e : {&shared, &independent}) {
    e->add_query("symbi", *q);
    e->add_query("symbi", *q);
  }
  EXPECT_EQ(shared.num_classes(), 1u);
  EXPECT_EQ(independent.num_classes(), 2u);

  const MultiStreamResult rs = shared.process_stream(stream);
  const MultiStreamResult ri = independent.process_stream(stream);
  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_EQ(rs.positive[h], ri.positive[h]);
    EXPECT_EQ(rs.negative[h], ri.negative[h]);
  }
}

TEST(MultiQueryEngine, AddMidStreamSeesOnlyLaterUpdates) {
  util::Rng rng(515);
  graph::DataGraph base = graph::generate_erdos_renyi(36, 90, 3, 2, rng);
  const auto qa = graph::extract_query(base, 4, rng);
  const auto qb = graph::extract_query(base, 3, rng);
  ASSERT_TRUE(qa.has_value() && qb.has_value());
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);
  ASSERT_GE(stream.size(), 2u);
  const std::size_t mid = stream.size() / 2;
  const std::vector<graph::GraphUpdate> first(stream.begin(),
                                              stream.begin() + mid);
  const std::vector<graph::GraphUpdate> second(stream.begin() + mid,
                                               stream.end());

  // Expected for the late query: a sequential run that warms through the
  // first half without counting — state identical to "registered at mid".
  std::uint64_t want_pos = 0, want_neg = 0;
  {
    auto alg = csm::make_algorithm("graphflow");
    graph::DataGraph g = base;
    csm::SequentialEngine eng(*alg, *qb, g);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto out = eng.process(stream[i]);
      if (i < mid) continue;
      want_pos += out.positive;
      want_neg += out.negative;
    }
  }

  graph::DataGraph g = base;
  MultiQueryEngine engine(g, Config{.threads = 2});
  engine.add_query("symbi", *qa);
  const MultiStreamResult r1 = engine.process_stream(first);
  const std::size_t hb = engine.add_query("graphflow", *qb);
  EXPECT_EQ(r1.positive.size(), 1u);  // registered after the first result
  const MultiStreamResult r2 = engine.process_stream(second);
  EXPECT_EQ(r2.positive[hb], want_pos);
  EXPECT_EQ(r2.negative[hb], want_neg);
}

TEST(MultiQueryEngine, RemoveFreesClassesAndReusesHandles) {
  util::Rng rng(616);
  graph::DataGraph base = graph::generate_erdos_renyi(30, 70, 3, 2, rng);
  const auto qa = graph::extract_query(base, 4, rng);
  const auto qb = graph::extract_query(base, 3, rng);
  ASSERT_TRUE(qa.has_value() && qb.has_value());
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  graph::DataGraph g = base;
  MultiQueryEngine engine(g, Config{.threads = 1});
  const std::size_t h0 = engine.add_query("symbi", *qa);
  const std::size_t h1 = engine.add_query("symbi", *qa);  // shares h0's class
  const std::size_t h2 = engine.add_query("graphflow", *qb);
  EXPECT_EQ(engine.num_queries(), 3u);
  EXPECT_EQ(engine.num_classes(), 2u);

  // Removing one member keeps the class alive for the other.
  EXPECT_TRUE(engine.remove_query(h0));
  EXPECT_EQ(engine.num_queries(), 2u);
  EXPECT_EQ(engine.num_classes(), 2u);
  // Removing the last member releases the class (and its index entries).
  EXPECT_TRUE(engine.remove_query(h1));
  EXPECT_EQ(engine.num_classes(), 1u);
  // Stale/double removal is rejected.
  EXPECT_FALSE(engine.remove_query(h0));
  EXPECT_FALSE(engine.remove_query(engine.num_slots() + 7));

  // A freed handle is recycled; the catalogue keeps working after churn.
  const std::size_t h3 = engine.add_query("turboflux", *qa);
  EXPECT_TRUE(h3 == h0 || h3 == h1);
  EXPECT_EQ(engine.num_queries(), 2u);
  EXPECT_EQ(engine.num_classes(), 2u);

  const auto expect_a = single_query_totals(base, *qa, "turboflux", stream);
  const auto expect_b = single_query_totals(base, *qb, "graphflow", stream);
  const MultiStreamResult r = engine.process_stream(stream);
  EXPECT_EQ(r.positive[h3], expect_a.first);
  EXPECT_EQ(r.negative[h3], expect_a.second);
  EXPECT_EQ(r.positive[h2], expect_b.first);
  EXPECT_EQ(r.negative[h2], expect_b.second);
  // The slot freed for good reports nothing.
  const std::size_t dead = h3 == h0 ? h1 : h0;
  EXPECT_EQ(r.positive[dead], 0u);
  EXPECT_EQ(r.negative[dead], 0u);
}

TEST(MultiQueryEngine, SharedTierCountersAccount) {
  util::Rng rng(717);
  graph::DataGraph base = graph::generate_erdos_renyi(36, 90, 3, 2, rng);
  std::vector<graph::QueryGraph> queries;
  for (int i = 0; i < 3; ++i) {
    const auto q = graph::extract_query(base, 4, rng);
    ASSERT_TRUE(q.has_value());
    queries.push_back(*q);
  }
  auto stream = graph::make_mixed_stream(base, 0.3, 0.4, rng);

  graph::DataGraph g = base;
  MultiQueryEngine engine(g, Config{.threads = 2});
  for (const auto& q : queries) engine.add_query("graphflow", q);
  const MultiStreamResult r = engine.process_stream(stream);

  EXPECT_GT(r.mq.updates_classified, 0u);
  // Structurally invalid updates (duplicate inserts, ghost deletes) classify
  // without probing; every structurally valid edge op probes exactly once.
  EXPECT_GT(r.mq.index_probes, 0u);
  EXPECT_LE(r.mq.index_probes, r.mq.updates_classified);
  // Every (query, update) verdict is settled by exactly one tier.
  EXPECT_GT(r.mq.verdicts_by_index + r.mq.verdicts_grouped, 0u);
  EXPECT_EQ((r.mq.verdicts_by_index + r.mq.verdicts_grouped) %
                engine.num_queries(),
            0u);
}

}  // namespace
}  // namespace paracosm::testing
