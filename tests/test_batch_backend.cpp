// Property tests for the pluggable batch backends (DESIGN.md §11).
//
// The central claim: the wide (AVX2/SWAR) backend produces byte-identical
// verdicts — and therefore byte-identical ΔM through the deterministic
// match-buffer merge — to the cpu backend, on every thread count and on
// both instruction paths. The tests pin:
//
//   * ΔM equality across {cpu, wide, auto} × {1,2,4,8} threads, full
//     mapping granularity (not just totals);
//   * kAuto's routing of single-lane batches to the cpu backend;
//   * per-backend counter conservation (lanes == verdict sum, every wide
//     lane accounted to exactly one resolution counter);
//   * edge cases: empty batch, single-edge stream, all-unsafe batch;
//   * forced SWAR vs forced AVX2 dispatch (identical verdicts; downgrade
//     accounting when AVX2 is unavailable);
//   * the candidate-index SoA column layout contract the wide popcount
//     kernel depends on (padded, zero-filled tails).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "csm/candidate_index.hpp"
#include "paracosm/batch_backend.hpp"
#include "paracosm/paracosm.hpp"
#include "tests/test_support.hpp"
#include "util/wide_ops.hpp"

namespace paracosm::engine {
namespace {

using graph::DataGraph;
using graph::GraphUpdate;
using graph::QueryGraph;
using testing::SmallWorkload;
using testing::make_workload;

/// One engine run: totals plus the full flattened match stream (every
/// delivered mapping in delivery order), byte-comparable across runs.
struct RunCapture {
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
  std::vector<csm::Assignment> flat;
  std::vector<std::size_t> sizes;  ///< mapping boundaries within `flat`
  StreamResult result;
};

RunCapture run_stream(const SmallWorkload& wl, const char* algorithm,
                      BatchBackendKind kind, unsigned threads,
                      unsigned batch_size = 0) {
  RunCapture cap;
  auto alg = csm::make_algorithm(algorithm);
  if (!alg) {
    ADD_FAILURE() << "unknown algorithm " << algorithm;
    return cap;
  }
  DataGraph g = wl.graph;
  Config cfg;
  cfg.threads = threads;
  cfg.batch_size = batch_size;
  cfg.batch_backend = kind;
  cfg.batch_mode = BatchMode::kStrict;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  ParaCosm pc(*alg, wl.query, g, cfg);
  pc.set_match_callback([&cap](std::span<const csm::Assignment> m) {
    cap.sizes.push_back(m.size());
    cap.flat.insert(cap.flat.end(), m.begin(), m.end());
  });
  cap.result = pc.process_stream(wl.stream);
  cap.positive = cap.result.positive;
  cap.negative = cap.result.negative;
  return cap;
}

/// Every backend-stats identity that must hold after a stream run.
void expect_conserved(const StreamResult& r) {
  const BatchBackendStats& c = r.backend_cpu;
  const BatchBackendStats& w = r.backend_wide;
  EXPECT_EQ(c.batches + w.batches, r.batches);
  for (const BatchBackendStats* s : {&c, &w}) {
    EXPECT_EQ(s->lanes,
              s->safe_label + s->safe_degree + s->safe_ads + s->unsafe_lanes);
  }
  // Every wide lane is resolved exactly once: by the validity prepass, by a
  // mask stage, or by the scalar fallback.
  EXPECT_EQ(w.lanes, w.wide_resolved() + w.scalar_fallbacks);
  EXPECT_EQ(w.batches, w.avx2_batches + w.swar_batches);
  EXPECT_EQ(c.scalar_fallbacks, 0u);  // cpu backend is all-scalar by definition
#ifdef PARACOSM_VERIFY
  // Verify builds shadow-diff every wide batch against the scalar classifier;
  // a divergence throws before the counter moves, so completing the stream
  // means every diff ran clean.
  EXPECT_EQ(w.verify_diffs, w.batches);
#else
  EXPECT_EQ(w.verify_diffs, 0u);
#endif
}

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(BackendEquivalence, DeltaMIdenticalAcrossBackendsAndThreads) {
  const auto [algorithm, seed] = GetParam();
  const SmallWorkload wl = make_workload(seed, 36, 90, 3, 2, 4);
  ASSERT_FALSE(wl.stream.empty());

  const RunCapture ref = run_stream(wl, algorithm, BatchBackendKind::kCpu, 1);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const auto kind : {BatchBackendKind::kCpu, BatchBackendKind::kWide,
                            BatchBackendKind::kAuto}) {
      const RunCapture got = run_stream(wl, algorithm, kind, threads);
      EXPECT_EQ(got.positive, ref.positive)
          << algorithm << " backend=" << batch_backend_name(kind)
          << " threads=" << threads;
      EXPECT_EQ(got.negative, ref.negative)
          << algorithm << " backend=" << batch_backend_name(kind)
          << " threads=" << threads;
      // Byte-identical ΔM: same mappings, same boundaries, same order.
      EXPECT_EQ(got.sizes, ref.sizes)
          << algorithm << " backend=" << batch_backend_name(kind)
          << " threads=" << threads;
      EXPECT_EQ(got.flat, ref.flat)
          << algorithm << " backend=" << batch_backend_name(kind)
          << " threads=" << threads;
      expect_conserved(got.result);
      if (kind == BatchBackendKind::kCpu) {
        EXPECT_EQ(got.result.backend_wide.batches, 0u);
      }
      if (kind == BatchBackendKind::kWide) {
        EXPECT_EQ(got.result.backend_cpu.batches, 0u);
      }
    }
  }
}

// kAuto routes a one-lane batch to the cpu backend at every pool size: one
// lane is classified inline, so the wide gather would be pure overhead.
TEST(BackendRouting, AutoSendsSingleLaneBatchesToCpu) {
  const SmallWorkload wl = make_workload(7, 36, 90, 3, 2, 4);
  ASSERT_FALSE(wl.stream.empty());
  const RunCapture ref = run_stream(wl, "graphflow", BatchBackendKind::kCpu, 1);
  for (const unsigned threads : {1u, 4u}) {
    const RunCapture got = run_stream(wl, "graphflow", BatchBackendKind::kAuto,
                                      threads, /*batch_size=*/1);
    EXPECT_GT(got.result.batches, 0u) << "threads=" << threads;
    EXPECT_EQ(got.result.backend_wide.batches, 0u) << "threads=" << threads;
    EXPECT_EQ(got.result.backend_cpu.batches, got.result.batches)
        << "threads=" << threads;
    EXPECT_EQ(got.flat, ref.flat) << "threads=" << threads;
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

/// Direct-backend fixture: one (query, graph, algorithm) bound to both
/// backends, bypassing the engine.
class DirectBackends : public ::testing::Test {
 protected:
  void SetUp() override {
    wl_ = make_workload(11, 36, 90, 3, 2, 4);
    ASSERT_FALSE(wl_.stream.empty());
    alg_ = csm::make_algorithm("newsp");
    ASSERT_NE(alg_, nullptr);
    alg_->attach(wl_.query, wl_.graph);
    classifier_ = std::make_unique<UpdateClassifier>(wl_.query, wl_.graph, *alg_);
    pool_ = std::make_unique<WorkerPool>(2u);
    bind_ = BackendBind{&wl_.query, &wl_.graph, alg_.get(), classifier_.get(),
                        pool_.get(), &locks_};
  }

  SmallWorkload wl_;
  std::unique_ptr<csm::CsmAlgorithm> alg_;
  std::unique_ptr<UpdateClassifier> classifier_;
  std::unique_ptr<WorkerPool> pool_;
  util::StripedLocks<64> locks_;
  BackendBind bind_;
};

TEST_F(DirectBackends, EmptyBatchIsANoOp) {
  for (const auto kind : {BatchBackendKind::kCpu, BatchBackendKind::kWide}) {
    auto backend = make_batch_backend(kind, bind_);
    ParallelStats stats;
    backend->classify_batch({}, {}, stats);
    EXPECT_EQ(backend->stats().lanes, 0u);
    EXPECT_EQ(backend->stats().safe(), 0u);
    EXPECT_EQ(backend->stats().unsafe_lanes, 0u);
    backend->apply_safe_prefix({}, stats);  // must not touch the graph
  }
}

TEST_F(DirectBackends, SingleEdgeBatchesAgree) {
  auto cpu = make_batch_backend(BatchBackendKind::kCpu, bind_);
  auto wide = make_batch_backend(BatchBackendKind::kWide, bind_);
  ParallelStats stats;
  for (const GraphUpdate& upd : wl_.stream) {
    UpdateClass vc = UpdateClass::kUnsafe;
    UpdateClass vw = UpdateClass::kUnsafe;
    cpu->classify_batch({&upd, 1}, {&vc, 1}, stats);
    wide->classify_batch({&upd, 1}, {&vw, 1}, stats);
    EXPECT_EQ(vc, vw);
  }
  EXPECT_EQ(cpu->stats().lanes, wl_.stream.size());
  EXPECT_EQ(wide->stats().lanes, wl_.stream.size());
  EXPECT_EQ(cpu->stats().batches, wl_.stream.size());
}

TEST_F(DirectBackends, AllUnsafeBatchAgrees) {
  // Distill the stream down to its genuinely unsafe updates (per the scalar
  // oracle) and classify them as one batch: every verdict must be kUnsafe on
  // both backends, and the wide backend must account each lane exactly once.
  std::vector<GraphUpdate> unsafe;
  for (const GraphUpdate& upd : wl_.stream)
    if (classifier_->classify(upd) == UpdateClass::kUnsafe) unsafe.push_back(upd);
  ASSERT_FALSE(unsafe.empty()) << "workload produced no unsafe updates";

  auto cpu = make_batch_backend(BatchBackendKind::kCpu, bind_);
  auto wide = make_batch_backend(BatchBackendKind::kWide, bind_);
  std::vector<UpdateClass> vc(unsafe.size()), vw(unsafe.size());
  ParallelStats stats;
  cpu->classify_batch(unsafe, vc, stats);
  wide->classify_batch(unsafe, vw, stats);
  EXPECT_EQ(vc, vw);
  for (const UpdateClass v : vc) EXPECT_EQ(v, UpdateClass::kUnsafe);
  EXPECT_EQ(cpu->stats().unsafe_lanes, unsafe.size());
  EXPECT_EQ(wide->stats().unsafe_lanes, unsafe.size());
  EXPECT_EQ(wide->stats().lanes,
            wide->stats().wide_resolved() + wide->stats().scalar_fallbacks);
}

TEST_F(DirectBackends, ForcedSwarAndForcedAvx2Agree) {
  auto swar = std::make_unique<WideBackend>(bind_, util::wide::Dispatch::kForceSwar);
  auto avx2 = std::make_unique<WideBackend>(bind_, util::wide::Dispatch::kForceAvx2);
  EXPECT_FALSE(swar->avx2_active());

  std::vector<UpdateClass> vs(wl_.stream.size()), va(wl_.stream.size());
  ParallelStats stats;
  constexpr std::size_t kBatch = 16;
  std::uint64_t batches = 0;
  for (std::size_t i = 0; i < wl_.stream.size(); i += kBatch, ++batches) {
    const std::size_t n = std::min(kBatch, wl_.stream.size() - i);
    swar->classify_batch(std::span(wl_.stream).subspan(i, n),
                         std::span(vs).subspan(i, n), stats);
    avx2->classify_batch(std::span(wl_.stream).subspan(i, n),
                         std::span(va).subspan(i, n), stats);
  }
  EXPECT_EQ(vs, va);  // instruction paths are verdict-equivalent

  EXPECT_EQ(swar->stats().swar_batches, batches);
  EXPECT_EQ(swar->stats().avx2_batches, 0u);
  EXPECT_EQ(swar->stats().fallback_activations, 0u);
  const bool have_avx2 = util::wide::avx2_compiled() && util::wide::avx2_runtime();
  EXPECT_EQ(avx2->avx2_active(), have_avx2);
  if (have_avx2) {
    EXPECT_EQ(avx2->stats().avx2_batches, batches);
    EXPECT_EQ(avx2->stats().fallback_activations, 0u);
  } else {
    // kForceAvx2 without hardware support downgrades to SWAR and counts
    // every batch as a fallback activation.
    EXPECT_EQ(avx2->stats().swar_batches, batches);
    EXPECT_EQ(avx2->stats().fallback_activations, batches);
  }
}

// --- Candidate-index SoA layout contract (the wide popcount kernel sums
// --- whole padded columns, so tails beyond capacity() MUST be zero). ------
TEST(CandidateColumnPadding, ColumnsPaddedAndZeroTailed) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const SmallWorkload wl = make_workload(seed, 37, 90, 3, 2, 4);
    csm::DagCandidateIndex index;
    index.build(wl.query, wl.graph, /*spanning_tree_only=*/false);
    const std::uint32_t cap = index.capacity();
    ASSERT_GT(cap, 0u);
    std::uint64_t scalar_pairs = 0;
    for (graph::VertexId u = 0; u < wl.query.num_vertices(); ++u) {
      const auto anc = index.anc_column(u);
      const auto desc = index.desc_column(u);
      // Physical layout: padded to a whole byte block, never shorter than
      // the logical extent.
      EXPECT_EQ(anc.size(), util::wide::padded_bytes(cap));
      EXPECT_EQ(desc.size(), util::wide::padded_bytes(cap));
      EXPECT_EQ(anc.size() % util::wide::kByteBlock, 0u);
      EXPECT_GE(anc.size(), cap);
      // Tail bytes beyond capacity() are zero — the regression this test
      // pins (a flag written past cap_ would inflate num_candidate_pairs).
      for (std::size_t i = cap; i < anc.size(); ++i) {
        EXPECT_EQ(anc[i], 0u) << "anc tail byte " << i << " of u=" << u;
        EXPECT_EQ(desc[i], 0u) << "desc tail byte " << i << " of u=" << u;
      }
      for (graph::VertexId v = 0; v < cap; ++v)
        scalar_pairs += index.candidate(u, v) ? 1 : 0;
    }
    EXPECT_EQ(index.num_candidate_pairs(), scalar_pairs);
  }
}

TEST(CandidateColumnPadding, VertexGrowthKeepsContract) {
  SmallWorkload wl = make_workload(6, 30, 70, 3, 2, 4);
  csm::DagCandidateIndex index;
  index.build(wl.query, wl.graph, /*spanning_tree_only=*/false);
  // Grow across several block boundaries; the columns must stay padded and
  // the wide pair count must keep matching the scalar reference.
  for (int i = 0; i < 40; ++i) {
    const graph::VertexId id = wl.graph.add_vertex(static_cast<graph::Label>(i % 3));
    index.on_vertex_added(id);
  }
  const std::uint32_t cap = index.capacity();
  std::uint64_t scalar_pairs = 0;
  for (graph::VertexId u = 0; u < wl.query.num_vertices(); ++u) {
    const auto anc = index.anc_column(u);
    EXPECT_EQ(anc.size(), util::wide::padded_bytes(cap));
    for (std::size_t i = cap; i < anc.size(); ++i) EXPECT_EQ(anc[i], 0u);
    for (graph::VertexId v = 0; v < cap; ++v)
      scalar_pairs += index.candidate(u, v) ? 1 : 0;
  }
  EXPECT_EQ(index.num_candidate_pairs(), scalar_pairs);
}

// The SWAR/AVX2 kernels must agree bit-for-bit on the popcount primitive,
// including ragged tails.
TEST(WideKernels, PairCountKernelsAgree) {
  util::Rng rng(99);
  for (const std::size_t logical : {1u, 7u, 31u, 32u, 33u, 100u, 255u, 256u}) {
    const std::size_t padded = util::wide::padded_bytes(logical);
    std::vector<std::uint8_t> a(padded, 0), b(padded, 0);
    for (std::size_t i = 0; i < logical; ++i) {
      a[i] = rng.bounded(2) != 0 ? 1 : 0;
      b[i] = rng.bounded(2) != 0 ? 1 : 0;
    }
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < logical; ++i) want += (a[i] & b[i]) != 0 ? 1 : 0;
    EXPECT_EQ(util::wide::count_pairs_swar(a.data(), b.data(), padded), want);
    if (util::wide::avx2_compiled() && util::wide::avx2_runtime()) {
      EXPECT_EQ(util::wide::count_pairs_avx2(a.data(), b.data(), padded), want);
    }
  }
}

}  // namespace
}  // namespace paracosm::engine
