// Pluggable safe-batch execution backends (DESIGN.md §11).
//
// The inter-update batch executor (Figure 6) does two data-parallel things
// per batch: classify every update against the batch-start snapshot, and
// apply the resulting safe prefix. Both now run behind this interface:
//
//   * CpuBackend  — the PR-2 path: the worker pool strides the scalar
//                   classifier over the batch.
//   * WideBackend — gathers each update's endpoint operands into uint64 SoA
//                   columns and runs the classifier's label / degree /
//                   packed-NLF stages as wide-lane mask kernels
//                   (util/wide_ops.hpp; AVX2 with a SWAR twin, runtime
//                   cpuid-dispatched). Lanes the masks cannot settle fall
//                   back to the scalar classifier, so every backend produces
//                   byte-identical verdicts — and therefore byte-identical
//                   ΔM through the deterministic match-buffer merge. Under
//                   PARACOSM_VERIFY the wide backend additionally shadow-
//                   runs the scalar classifier on every batch and throws on
//                   the first verdict mismatch (the per-batch oracle diff).
//
// Safe-prefix application (sharded cursor + striped per-vertex locks) lives
// on the base class: it is endpoint-confined pointer chasing that no lane
// width helps, but a future device backend overrides it to keep ΔG resident.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "paracosm/classifier.hpp"
#include "paracosm/config.hpp"
#include "paracosm/stats.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/sync.hpp"
#include "util/wide_ops.hpp"

namespace paracosm::engine {

/// Everything a backend borrows from the owning ParaCosm. Non-owning; the
/// facade outlives its backends. `graph`/`alg` are mutable because
/// apply_safe_prefix performs the (endpoint-confined) safe mutations.
struct BackendBind {
  const graph::QueryGraph* query = nullptr;
  graph::DataGraph* graph = nullptr;
  csm::CsmAlgorithm* alg = nullptr;
  const UpdateClassifier* classifier = nullptr;
  WorkerPool* pool = nullptr;
  util::StripedLocks<64>* locks = nullptr;
};

class BatchBackend {
 public:
  explicit BatchBackend(const BackendBind& bind) noexcept : b_(bind) {}
  virtual ~BatchBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Classify `batch` against the batch-start snapshot (read-only on graph
  /// and ADS) into `verdicts` (same length). Worker/serial CPU time is
  /// accounted into `stats` exactly like the inner executors do.
  virtual void classify_batch(std::span<const graph::GraphUpdate> batch,
                              std::span<UpdateClass> verdicts,
                              ParallelStats& stats) = 0;

  /// Apply an already-classified safe prefix in parallel (phase 2b): the
  /// batch is sharded across the pool via per-worker striped cursors and
  /// the striped per-vertex locks serialize rare stripe collisions. Shared
  /// base implementation; device backends may override.
  virtual void apply_safe_prefix(std::span<const graph::GraphUpdate> prefix,
                                 ParallelStats& stats);

  [[nodiscard]] const BatchBackendStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 protected:
  /// One safe update: adjacency plus counter-cache deltas, no enumeration
  /// (safety guarantees ΔM = ∅ and no index flips).
  void apply_one(const graph::GraphUpdate& upd);
  /// Fold a finished batch's verdicts into the per-backend counters.
  void count_verdicts(std::span<const UpdateClass> verdicts) noexcept;

  BackendBind b_;
  BatchBackendStats stats_;
};

/// The default backend: scalar classification strided over the worker pool.
class CpuBackend final : public BatchBackend {
 public:
  using BatchBackend::BatchBackend;
  [[nodiscard]] std::string_view name() const noexcept override { return "cpu"; }
  void classify_batch(std::span<const graph::GraphUpdate> batch,
                      std::span<UpdateClass> verdicts,
                      ParallelStats& stats) override;
};

/// AVX2/SWAR wide-lane backend: see file comment and DESIGN.md §11.
class WideBackend final : public BatchBackend {
 public:
  WideBackend(const BackendBind& bind, util::wide::Dispatch dispatch);
  [[nodiscard]] std::string_view name() const noexcept override { return "wide"; }
  void classify_batch(std::span<const graph::GraphUpdate> batch,
                      std::span<UpdateClass> verdicts,
                      ParallelStats& stats) override;

  /// True when this instance resolved to the AVX2 instruction path.
  [[nodiscard]] bool avx2_active() const noexcept { return avx2_; }

 private:
  bool avx2_ = false;
  bool downgraded_ = false;  ///< kForceAvx2 request resolved to SWAR

  // One oriented term per (query edge, orientation), fixed at bind time —
  // the exact set matching_edges() enumerates, so the mask OR reproduces
  // the scalar stage-1/2 predicates verbatim.
  std::vector<util::wide::EdgeTerm> terms_;
  bool endpoint_local_ = false;  ///< alg->ads_safe_endpoint_nlf() && !has_ads
  bool has_ads_ = false;

  // Per-batch SoA scratch, reused across batches (capacity high-water).
  std::vector<std::uint64_t> lu_, lv_, el_, du_, dv_, sig_u_, sig_v_;
  std::vector<std::uint64_t> any_label_, any_deg_, any_alive_;
  std::vector<graph::GraphUpdate> eff_;
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint32_t> fallback_;
};

/// Registry: construct a concrete backend by kind. kAuto is a per-batch
/// routing policy, not a backend — the caller holds one backend of each kind
/// and picks per batch (ParaCosm::backend_for); asking for kAuto here
/// returns the wide backend.
[[nodiscard]] std::unique_ptr<BatchBackend> make_batch_backend(
    BatchBackendKind kind, const BackendBind& bind,
    util::wide::Dispatch dispatch = util::wide::Dispatch::kAuto);

}  // namespace paracosm::engine
