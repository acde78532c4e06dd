// google-benchmark microbenchmarks for the substrates: dynamic graph
// mutation/lookup, index maintenance, classifier latency, and the concurrent
// task queue. These quantify the per-operation constants behind the
// macro-level tables.
#include <benchmark/benchmark.h>

#include "csm/candidate_index.hpp"
#include "csm/scratch.hpp"
#include "csm/support_index.hpp"
#include "graph/generators.hpp"
#include "graph/nlf_signature.hpp"
#include "paracosm/classifier.hpp"
#include "paracosm/task_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace paracosm;

graph::DataGraph make_graph(std::uint32_t n, std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::generate_erdos_renyi(n, m, 8, 4, rng);
}

void BM_DataGraphAddRemoveEdge(benchmark::State& state) {
  graph::DataGraph g = make_graph(static_cast<std::uint32_t>(state.range(0)),
                                  static_cast<std::uint64_t>(state.range(0)) * 8, 1);
  util::Rng rng(2);
  const std::uint32_t n = g.vertex_capacity();
  for (auto _ : state) {
    const auto u = static_cast<graph::VertexId>(rng.bounded(n));
    const auto v = static_cast<graph::VertexId>(rng.bounded(n));
    if (g.add_edge(u, v, 0)) benchmark::DoNotOptimize(g.remove_edge(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataGraphAddRemoveEdge)->Arg(1024)->Arg(16384);

void BM_DataGraphEdgeLookup(benchmark::State& state) {
  graph::DataGraph g = make_graph(4096, 32768, 3);
  util::Rng rng(4);
  for (auto _ : state) {
    const auto u = static_cast<graph::VertexId>(rng.bounded(4096));
    const auto v = static_cast<graph::VertexId>(rng.bounded(4096));
    benchmark::DoNotOptimize(g.has_edge(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataGraphEdgeLookup);

template <bool kTreeOnly>
void BM_DagIndexUpdate(benchmark::State& state) {
  util::Rng rng(5);
  graph::DataGraph g = make_graph(2048, 16384, 5);
  const auto q = graph::extract_query(g, 6, rng);
  if (!q) {
    state.SkipWithError("query extraction failed");
    return;
  }
  csm::DagCandidateIndex index;
  index.build(*q, g, kTreeOnly);
  const std::uint32_t n = g.vertex_capacity();
  for (auto _ : state) {
    const auto u = static_cast<graph::VertexId>(rng.bounded(n));
    const auto v = static_cast<graph::VertexId>(rng.bounded(n));
    if (g.add_edge(u, v, 0)) {
      index.on_edge_inserted(u, v, 0);
      g.remove_edge(u, v);
      index.on_edge_removed(u, v, 0);
    }
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_DagIndexUpdate<true>)->Name("BM_DcgIndexUpdate_TurboFlux");
BENCHMARK(BM_DagIndexUpdate<false>)->Name("BM_DcsIndexUpdate_Symbi");

void BM_SupportIndexUpdate(benchmark::State& state) {
  util::Rng rng(6);
  graph::DataGraph g = make_graph(2048, 16384, 6);
  const auto q = graph::extract_query(g, 6, rng);
  if (!q) {
    state.SkipWithError("query extraction failed");
    return;
  }
  csm::SupportIndex index;
  index.build(*q, g);
  const std::uint32_t n = g.vertex_capacity();
  for (auto _ : state) {
    const auto u = static_cast<graph::VertexId>(rng.bounded(n));
    const auto v = static_cast<graph::VertexId>(rng.bounded(n));
    if (g.add_edge(u, v, 0)) {
      index.on_edge_inserted(u, v);
      g.remove_edge(u, v);
      index.on_edge_removed(u, v);
    }
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SupportIndexUpdate);

// NLF as maintained by the substrate (segment-directory width lookup) vs the
// O(d) reference recount — the cached path is what NewSP's filter and the
// classifier's stage-2 hammer once per candidate. The graph is sized past
// the L2 cache: at toy sizes the whole vertex table is cache-resident and
// the recount's per-neighbor label loads are flatteringly cheap.
constexpr std::uint32_t kNlfBenchVertices = 32768;
constexpr std::uint64_t kNlfBenchEdges = 524288;

void BM_NlfLookupCached(benchmark::State& state) {
  graph::DataGraph g = make_graph(kNlfBenchVertices, kNlfBenchEdges, 8);
  util::Rng rng(9);
  for (auto _ : state) {
    const auto v = static_cast<graph::VertexId>(rng.bounded(kNlfBenchVertices));
    const auto l = static_cast<graph::Label>(rng.bounded(8));
    benchmark::DoNotOptimize(g.nlf(v, l));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NlfLookupCached);

void BM_NlfLookupRecount(benchmark::State& state) {
  graph::DataGraph g = make_graph(kNlfBenchVertices, kNlfBenchEdges, 8);
  util::Rng rng(9);
  for (auto _ : state) {
    const auto v = static_cast<graph::VertexId>(rng.bounded(kNlfBenchVertices));
    const auto l = static_cast<graph::Label>(rng.bounded(8));
    benchmark::DoNotOptimize(g.nlf_recount(v, l));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NlfLookupRecount);

// Packed-signature containment: the one-instruction pre-reject that guards
// the exact NLF comparison in match_endpoint_ok / NewSP::nlf_dominates.
void BM_NlfSignatureCovers(benchmark::State& state) {
  graph::DataGraph g = make_graph(4096, 65536, 8);
  util::Rng rng(10);
  for (auto _ : state) {
    const auto v = static_cast<graph::VertexId>(rng.bounded(4096));
    const auto w = static_cast<graph::VertexId>(rng.bounded(4096));
    benchmark::DoNotOptimize(
        graph::nlf_sig_covers(g.nlf_signature(v), g.nlf_signature(w)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NlfSignatureCovers);

// Candidate iteration: matching-label segment vs filtering the full
// adjacency — the backtracking candidate loop's access pattern.
void BM_NeighborsLabelSegment(benchmark::State& state) {
  graph::DataGraph g = make_graph(4096, 65536, 11);
  util::Rng rng(12);
  for (auto _ : state) {
    const auto v = static_cast<graph::VertexId>(rng.bounded(4096));
    const auto l = static_cast<graph::Label>(rng.bounded(8));
    std::uint64_t sum = 0;
    for (const auto& nb : g.neighbors_with_label(v, l)) sum += nb.v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborsLabelSegment);

void BM_NeighborsFilteredScan(benchmark::State& state) {
  graph::DataGraph g = make_graph(4096, 65536, 11);
  util::Rng rng(12);
  for (auto _ : state) {
    const auto v = static_cast<graph::VertexId>(rng.bounded(4096));
    const auto l = static_cast<graph::Label>(rng.bounded(8));
    std::uint64_t sum = 0;
    for (const auto& nb : g.neighbors(v))
      if (g.label(nb.v) == l) sum += nb.v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborsFilteredScan);

// Epoch-stamped used-check vs the O(depth) linear scan it replaced, at a
// typical partial-match depth.
void BM_ScratchUsedEpoch(benchmark::State& state) {
  csm::SearchScratch s;
  util::Rng rng(13);
  constexpr std::uint32_t kDepth = 8;
  s.prepare(kDepth, 65536);
  for (std::uint32_t i = 0; i < kDepth; ++i)
    s.mark_used(static_cast<graph::VertexId>(rng.bounded(65536)));
  for (auto _ : state) {
    const auto w = static_cast<graph::VertexId>(rng.bounded(65536));
    benchmark::DoNotOptimize(s.is_used(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScratchUsedEpoch);

void BM_ScratchUsedLinearScan(benchmark::State& state) {
  util::Rng rng(13);
  constexpr std::uint32_t kDepth = 8;
  std::vector<csm::Assignment> assigned;
  for (std::uint32_t i = 0; i < kDepth; ++i)
    assigned.push_back({i, static_cast<graph::VertexId>(rng.bounded(65536))});
  for (auto _ : state) {
    const auto w = static_cast<graph::VertexId>(rng.bounded(65536));
    bool used = false;
    for (const auto& a : assigned)
      if (a.dv == w) used = true;
    benchmark::DoNotOptimize(used);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScratchUsedLinearScan);

// Scratch re-preparation cost per task (epoch bump + map reset).
void BM_ScratchPrepare(benchmark::State& state) {
  csm::SearchScratch s;
  for (auto _ : state) {
    s.prepare(8, 65536);
    benchmark::DoNotOptimize(s.map.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScratchPrepare);

void BM_ClassifierLatency(benchmark::State& state) {
  util::Rng rng(7);
  graph::DataGraph g = make_graph(2048, 16384, 7);
  const auto q = graph::extract_query(g, 6, rng);
  if (!q) {
    state.SkipWithError("query extraction failed");
    return;
  }
  auto alg = csm::make_algorithm("symbi");
  alg->attach(*q, g);
  engine::UpdateClassifier classifier(*q, g, *alg);
  const std::uint32_t n = g.vertex_capacity();
  for (auto _ : state) {
    const auto u = static_cast<graph::VertexId>(rng.bounded(n));
    const auto v = static_cast<graph::VertexId>(rng.bounded(n));
    benchmark::DoNotOptimize(
        classifier.classify(graph::GraphUpdate::insert_edge(u, v, 0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifierLatency);

void BM_TaskQueuePushPop(benchmark::State& state) {
  engine::TaskQueue queue(1);
  csm::SearchTask task{{{0, 1}, {1, 2}}};
  for (auto _ : state) {
    queue.push(0, csm::SearchTask(task));
    auto popped = queue.pop_or_finish(0);
    benchmark::DoNotOptimize(popped);
    queue.retire();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskQueuePushPop);

}  // namespace

BENCHMARK_MAIN();
