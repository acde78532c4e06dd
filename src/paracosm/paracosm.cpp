#include "paracosm/paracosm.hpp"

#include <stdexcept>
#include <unordered_set>

#include "obs/trace_ring.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

using graph::GraphUpdate;
using graph::UpdateOp;
using graph::VertexId;

namespace {

/// kAuto crossover: batches with at most this many lanes go wide; larger
/// batches go to the pool-strided cpu backend (with >1 worker the pooled
/// scalar path overtakes the mostly-serial wide gather once the batch is
/// big enough to amortize pool dispatch — bench/ablation_backend.cpp). The
/// measured crossover on the Orkut stand-in at 4 threads.
constexpr std::size_t kWideAutoCutoff = 512;

}  // namespace

ParaCosm::ParaCosm(csm::CsmAlgorithm& alg, const graph::QueryGraph& q,
                   graph::DataGraph& g, Config config)
    : alg_(alg),
      q_(q),
      g_(g),
      config_(config),
      runtime_(config),
      classifier_(q, g, alg) {
  alg_.attach(q_, g_);
  // Both batch backends are constructed up front (the wide bind is a few
  // dozen broadcast operands); Config::batch_backend only routes batches.
  const BackendBind bind{&q_, &g_, &alg_, &classifier_, &runtime_.pool, &locks_};
  backend_cpu_ = make_batch_backend(BatchBackendKind::kCpu, bind);
  backend_wide_ = make_batch_backend(BatchBackendKind::kWide, bind);
}

BatchBackend& ParaCosm::backend_for(std::size_t batch_lanes) noexcept {
  switch (config_.batch_backend) {
    case BatchBackendKind::kCpu: return *backend_cpu_;
    case BatchBackendKind::kWide: return *backend_wide_;
    case BatchBackendKind::kAuto: break;
  }
  // A single lane needs no gather: the cpu backend classifies it inline,
  // without a pool dispatch, at any pool size.
  if (batch_lanes <= 1) return *backend_cpu_;
  if (runtime_.pool.size() <= 1) return *backend_wide_;
  return batch_lanes <= kWideAutoCutoff ? *backend_wide_ : *backend_cpu_;
}

csm::UpdateOutcome ParaCosm::process(const GraphUpdate& upd,
                                     util::Clock::time_point deadline,
                                     util::CancelView cancel) {
  return process_into(upd, deadline, cancel, loose_stats_);
}

csm::UpdateOutcome ParaCosm::process_into(const GraphUpdate& upd,
                                          util::Clock::time_point deadline,
                                          util::CancelView cancel,
                                          ParallelStats& stats) {
  PARACOSM_TRACE_SPAN(update_span, obs::EventKind::kUpdate,
                      static_cast<std::uint64_t>(upd.op), upd.u, upd.v);
  switch (upd.op) {
    case UpdateOp::kInsertEdge:
    case UpdateOp::kRemoveEdge:
      return process_edge(upd, deadline, cancel, stats);
    case UpdateOp::kInsertVertex: {
      csm::UpdateOutcome out;
      const bool existed = g_.has_vertex(upd.u);
      g_.add_vertex_with_id(upd.u, upd.label);
      if (!existed) alg_.on_vertex_added(upd.u);
      out.applied = true;
      return out;
    }
    case UpdateOp::kRemoveVertex: {
      csm::UpdateOutcome out;
      if (!g_.has_vertex(upd.u)) return out;
      std::vector<GraphUpdate> removals;
      for (const auto& nb : g_.neighbors(upd.u))
        removals.push_back(GraphUpdate::remove_edge(upd.u, nb.v, nb.elabel));
      for (const GraphUpdate& rm : removals) {
        const csm::UpdateOutcome sub = process_edge(rm, deadline, cancel, stats);
        out.negative += sub.negative;
        out.nodes += sub.nodes;
        out.timed_out = out.timed_out || sub.timed_out;
        out.cancelled = out.cancelled || sub.cancelled;
      }
      g_.remove_vertex(upd.u);
      alg_.on_vertex_removed(upd.u);
      out.applied = true;
      return out;
    }
  }
  return {};
}

csm::UpdateOutcome ParaCosm::process_edge(const GraphUpdate& upd,
                                          util::Clock::time_point deadline,
                                          util::CancelView cancel,
                                          ParallelStats& stats) {
  csm::UpdateOutcome out;
  const bool insert = upd.op == UpdateOp::kInsertEdge;

  const auto explore = [&](const std::vector<csm::SearchTask>& roots)
      -> std::pair<std::uint64_t, std::uint64_t> {
    if (roots.empty()) return {0, 0};
    if (config_.inner_parallelism) {
      const auto* cb = on_match_ ? &on_match_ : nullptr;
      InnerRunResult run = runtime_.inner.run(alg_, roots, deadline, cb, cancel);
      stats.merge(run.stats);
      out.timed_out = out.timed_out || run.timed_out;
      out.cancelled = out.cancelled || run.cancelled;
      return {run.matches, run.nodes};
    }
    util::ThreadCpuTimer timer;
    csm::MatchSink sink;
    sink.deadline = deadline;
    sink.cancel = cancel;
    if (on_match_) sink.on_match = on_match_;
    for (const csm::SearchTask& task : roots) {
      PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand, task.depth());
      alg_.expand(task, sink, nullptr);
      if (sink.stopped()) break;
    }
    stats.serial_ns += timer.elapsed_ns();
    out.timed_out = out.timed_out || sink.timed_out();
    out.cancelled = out.cancelled || sink.cancelled();
    return {sink.matches, sink.nodes};
  };

  if (insert) {
    util::ThreadCpuTimer serial;
    if (!g_.add_edge(upd.u, upd.v, upd.label)) return out;
    alg_.on_edge_inserted(upd);
    std::vector<csm::SearchTask> roots;
    {
      PARACOSM_TRACE_SPAN(seed_span, obs::EventKind::kSeedGen, upd.u, upd.v);
      alg_.seeds(upd, roots);
    }
    stats.serial_ns += serial.elapsed_ns();
    out.applied = true;
    const auto [matches, nodes] = explore(roots);
    out.positive = matches;
    out.nodes = nodes;
  } else {
    // Resolve the actual edge label before seeding: deletion requests may
    // omit it ("-e u v"), and label-keyed seeds would enumerate phantom
    // matches or miss real ones (see csm/engine.cpp).
    const auto actual_label = g_.edge_label(upd.u, upd.v);
    if (!actual_label) return out;
    GraphUpdate del = upd;
    del.label = *actual_label;
    util::ThreadCpuTimer serial;
    std::vector<csm::SearchTask> roots;
    {
      PARACOSM_TRACE_SPAN(seed_span, obs::EventKind::kSeedGen, del.u, del.v);
      alg_.seeds(del, roots);
    }
    stats.serial_ns += serial.elapsed_ns();
    const auto [matches, nodes] = explore(roots);
    out.negative = matches;
    out.nodes = nodes;
    util::ThreadCpuTimer serial2;
    g_.remove_edge(upd.u, upd.v);
    alg_.on_edge_removed(del);
    out.applied = true;
    stats.serial_ns += serial2.elapsed_ns();
  }
  return out;
}

StreamResult ParaCosm::process_stream(std::span<const GraphUpdate> stream,
                                      util::Clock::time_point deadline,
                                      util::CancelView cancel) {
  StreamResult result;
  util::WallTimer wall;

  const auto expired = [&] {
    return deadline != util::Clock::time_point{} && util::Clock::now() >= deadline;
  };
  const auto absorb = [&](const csm::UpdateOutcome& out) {
    result.positive += out.positive;
    result.negative += out.negative;
    result.nodes += out.nodes;
    result.timed_out = result.timed_out || out.timed_out;
    result.cancelled = result.cancelled || out.cancelled;
    if (!out.applied) ++result.noop_skipped;
  };

  if (!config_.inter_parallelism) {
    for (const GraphUpdate& upd : stream) {
      if (expired()) {
        result.timed_out = true;
        break;
      }
      absorb(process_into(upd, deadline, cancel, result.stats));
      ++result.updates_processed;
    }
    result.wall_ns = wall.elapsed_ns();
    return result;
  }

  // Per-stream backend accounting: reset here, snapshot into the result at
  // the end (conservation: cpu.batches + wide.batches == result.batches).
  backend_cpu_->reset_stats();
  backend_wide_->reset_stats();

  std::size_t i = 0;
  std::vector<UpdateClass> verdicts;
  result.stats.ensure_size(runtime_.pool.size());
  const unsigned k = std::max(1u, config_.effective_batch_size());

  while (i < stream.size()) {
    if (expired()) {
      result.timed_out = true;
      break;
    }
    const std::size_t count = std::min<std::size_t>(k, stream.size() - i);
    ++result.batches;
#if defined(PARACOSM_TRACE_ENABLED)
    // The batch span covers classify + safe-apply (phases 1–2b) and is
    // recorded *before* the sequential unsafe update of phase 2c runs, so a
    // trace never shows an unsafe kUpdate span inside a kBatch span — the
    // integration test asserts exactly that nesting.
    const std::int64_t trace_batch_t0 =
        obs::trace_level() >= 1 ? obs::now_ns() : 0;
#endif

    // Phase 1 — classification against the batch-start snapshot (read-only
    // on graph and ADS), routed through the configured batch backend
    // (batch_backend.hpp): the CPU backend strides the scalar classifier
    // over the pool, the wide backend runs the mask kernels. Both produce
    // byte-identical verdicts (the wide path self-diffs per batch under
    // PARACOSM_VERIFY).
    verdicts.assign(count, UpdateClass::kUnsafe);
    BatchBackend& backend = backend_for(count);
    backend.classify_batch(stream.subspan(i, count), verdicts, result.stats);

    // Phase 2a — commit plan (cheap, sequential): the safe prefix up to the
    // first unsafe update (Figure 6) or, in strict mode, the first update
    // whose endpoints were already touched in this batch (DESIGN.md §4).
    std::unordered_set<VertexId> touched;
    std::size_t safe_prefix = 0;
    bool hit_unsafe = false;
    while (safe_prefix < count) {
      const GraphUpdate& upd = stream[i + safe_prefix];
      const UpdateClass verdict = verdicts[safe_prefix];
      if (!is_safe(verdict)) {
        hit_unsafe = true;
        break;
      }
      if (config_.batch_mode == BatchMode::kStrict && upd.is_edge_op() &&
          (touched.contains(upd.u) || touched.contains(upd.v))) {
        // Snapshot verdict may be stale: defer for re-classification.
        ++result.deferred_conflicts;
        break;
      }
      if (upd.is_edge_op()) {
        touched.insert(upd.u);
        touched.insert(upd.v);
      }
      ++safe_prefix;
    }
    for (std::size_t j = 0; j < safe_prefix + (hit_unsafe ? 1 : 0); ++j) {
      ++result.classifier.total;
      switch (verdicts[j]) {
        case UpdateClass::kSafeLabel: ++result.classifier.safe_label; break;
        case UpdateClass::kSafeDegree: ++result.classifier.safe_degree; break;
        case UpdateClass::kSafeAds: ++result.classifier.safe_ads; break;
        case UpdateClass::kUnsafe: ++result.classifier.unsafe_updates; break;
      }
    }

    // Phase 2b — apply the safe prefix in parallel: safety guarantees
    // confine each application to its endpoints' adjacency and counter
    // caches, and the striped per-vertex locks serialize the rare stripe
    // collisions (in strict mode the endpoints are pairwise disjoint).
    // The batch is sharded across the pool via per-worker striped cursors
    // (shard_cursor.hpp): each worker drains a contiguous slice with
    // uncontended claims and only steals from stragglers' shards.
    if (safe_prefix > 0) {
#ifdef PARACOSM_VERIFY
      // Metamorphic invariant (verify/invariants.hpp): a safe-classified
      // update must not flip ADS state, so a whole batch of them must leave
      // the rolling checksum bit-identical. Reading it only at the batch
      // boundaries keeps the check O(1) per batch and outside the window
      // where workers mutate counter caches concurrently.
      const std::uint64_t verify_ads_before = alg_.ads_checksum();
#endif
      backend.apply_safe_prefix(stream.subspan(i, safe_prefix), result.stats);
#ifdef PARACOSM_VERIFY
      if (alg_.ads_checksum() != verify_ads_before)
        throw std::logic_error(
            "PARACOSM_VERIFY: a safe-classified batch mutated the ADS "
            "checksum — the classifier or an ads_safe rule is unsound");
#endif
      result.safe_applied += safe_prefix;
      result.updates_processed += safe_prefix;
    }
#if defined(PARACOSM_TRACE_ENABLED)
    if (obs::trace_level() >= 1)
      obs::trace_complete(obs::EventKind::kBatch, trace_batch_t0,
                          result.batches - 1, count, safe_prefix);
#endif
    i += safe_prefix;

    // Phase 2c — the unsafe update runs sequentially (ADS) with the
    // inner-update executor searching; the batch remainder is deferred.
    if (hit_unsafe) {
      ++result.unsafe_sequential;
      absorb(process_into(stream[i], deadline, cancel, result.stats));
      ++result.updates_processed;
      ++i;
      result.deferred_after_unsafe += count - safe_prefix - 1;
    }
  }

  result.backend_cpu = backend_cpu_->stats();
  result.backend_wide = backend_wide_->stats();
  result.wall_ns = wall.elapsed_ns();
  return result;
}

}  // namespace paracosm::engine
