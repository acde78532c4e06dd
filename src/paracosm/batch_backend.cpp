#include "paracosm/batch_backend.hpp"

#include <stdexcept>
#include <string>

#include "graph/nlf_signature.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/shard_cursor.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

// The restated constant in the dependency-free kernel header must be the
// real signature guard (see wide_ops.hpp).
static_assert(util::wide::kSigGuard == graph::kNlfSigGuard);

using graph::GraphUpdate;
using graph::UpdateOp;

void BatchBackend::apply_one(const GraphUpdate& upd) {
  if (upd.op == UpdateOp::kInsertEdge) {
    b_.graph->add_edge(upd.u, upd.v, upd.label);
    b_.alg->on_edge_inserted(upd);  // counter-cache deltas only; no flips by proof
  } else {
    const auto removed = b_.graph->remove_edge(upd.u, upd.v);
    if (removed) {
      GraphUpdate applied = upd;
      applied.label = *removed;
      b_.alg->on_edge_removed(applied);
    }
  }
}

void BatchBackend::apply_safe_prefix(std::span<const GraphUpdate> prefix,
                                     ParallelStats& stats) {
  const unsigned nthreads = b_.pool->size();
  if (nthreads > 1 && prefix.size() > 1) {
    stats.ensure_size(nthreads);
    ShardedCursor cursor(prefix.size(), nthreads, b_.pool->node_map());
    b_.pool->run([&](unsigned wid) {
      util::ThreadCpuTimer timer;
      std::uint64_t applied = 0;
      for (std::size_t j = cursor.claim(wid); j != ShardedCursor::npos;
           j = cursor.claim(wid)) {
        const GraphUpdate& upd = prefix[j];
        b_.locks->lock_pair(upd.u, upd.v);
        apply_one(upd);
        b_.locks->unlock_pair(upd.u, upd.v);
        PARACOSM_TRACE_INSTANT(obs::EventKind::kSafeApply, upd.u, upd.v);
        ++applied;
      }
      WorkerStats& ws = stats.workers[wid];
      ws.busy_ns += timer.elapsed_ns();
      ws.shard_updates += applied;
    });
    stats.dispatch_ns += b_.pool->last_dispatch_ns();
  } else {
    util::ThreadCpuTimer timer;
    for (const GraphUpdate& upd : prefix) {
      apply_one(upd);
      PARACOSM_TRACE_INSTANT(obs::EventKind::kSafeApply, upd.u, upd.v);
    }
    stats.serial_ns += timer.elapsed_ns();
  }
}

void BatchBackend::count_verdicts(std::span<const UpdateClass> verdicts) noexcept {
  ++stats_.batches;
  stats_.lanes += verdicts.size();
  for (const UpdateClass c : verdicts) {
    switch (c) {
      case UpdateClass::kSafeLabel: ++stats_.safe_label; break;
      case UpdateClass::kSafeDegree: ++stats_.safe_degree; break;
      case UpdateClass::kSafeAds: ++stats_.safe_ads; break;
      case UpdateClass::kUnsafe: ++stats_.unsafe_lanes; break;
    }
  }
}

void CpuBackend::classify_batch(std::span<const GraphUpdate> batch,
                                std::span<UpdateClass> verdicts,
                                ParallelStats& stats) {
#if defined(PARACOSM_TRACE_ENABLED)
  const std::int64_t trace_t0 = obs::trace_level() >= 1 ? obs::now_ns() : 0;
#endif
  const std::size_t count = batch.size();
  const unsigned nthreads = b_.pool->size();
  if (nthreads > 1 && count > 1) {
    stats.ensure_size(nthreads);
    b_.pool->run([&](unsigned wid) {
      util::ThreadCpuTimer timer;
      for (std::size_t j = wid; j < count; j += nthreads)
        verdicts[j] = b_.classifier->classify(batch[j]);
      stats.workers[wid].busy_ns += timer.elapsed_ns();
    });
    stats.dispatch_ns += b_.pool->last_dispatch_ns();
  } else {
    util::ThreadCpuTimer timer;
    for (std::size_t j = 0; j < count; ++j)
      verdicts[j] = b_.classifier->classify(batch[j]);
    stats.serial_ns += timer.elapsed_ns();
  }
  count_verdicts(verdicts);
#if defined(PARACOSM_TRACE_ENABLED)
  if (obs::trace_level() >= 1)
    obs::trace_complete(obs::EventKind::kBatchBackend, trace_t0, 0, count, 0);
#endif
}

WideBackend::WideBackend(const BackendBind& bind, util::wide::Dispatch dispatch)
    : BatchBackend(bind) {
  avx2_ = util::wide::use_avx2(dispatch, &downgraded_);

  has_ads_ = b_.alg->has_ads();
  endpoint_local_ = !has_ads_ && b_.alg->ads_safe_endpoint_nlf();
  const bool blind = !b_.alg->uses_edge_labels();

  // Both orientations of every query edge — exactly the set
  // QueryGraph::matching_edges enumerates, so ORing per-term masks
  // reproduces the scalar stage-1/2 predicates lane for lane.
  const graph::QueryGraph& q = *b_.query;
  for (const graph::Edge& e : q.edges()) {
    for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
      util::wide::EdgeTerm t;
      t.l1 = q.label(a);
      t.l2 = q.label(b);
      t.el = e.elabel;
      t.d1 = q.degree(a);
      t.d2 = q.degree(b);
      t.sig1 = q.nlf_signature(a);
      t.sig2 = q.nlf_signature(b);
      t.blind = blind;
      terms_.push_back(t);
    }
  }
}

void WideBackend::classify_batch(std::span<const GraphUpdate> batch,
                                 std::span<UpdateClass> verdicts,
                                 ParallelStats& stats) {
#if defined(PARACOSM_TRACE_ENABLED)
  const std::int64_t trace_t0 = obs::trace_level() >= 1 ? obs::now_ns() : 0;
#endif
  const std::size_t count = batch.size();
  const std::size_t padded = util::wide::padded_lanes(count);
  const graph::DataGraph& g = *b_.graph;

  util::ThreadCpuTimer serial;

  // Gather: one scalar prepass per lane (validity + delete-label
  // resolution), then the endpoint operands as uniform uint64 columns.
  // Signatures carry the pending-edge adjustment on inserts (nlf_sig_add),
  // mirroring the scalar filters; tails stay zero per the layout contract.
  const auto reset = [padded](std::vector<std::uint64_t>& col) {
    col.assign(padded, 0);
  };
  reset(lu_); reset(lv_); reset(el_); reset(du_); reset(dv_);
  reset(sig_u_); reset(sig_v_);
  reset(any_label_); reset(any_deg_); reset(any_alive_);
  eff_.assign(count, GraphUpdate{});
  valid_.assign(count, 0);

  std::uint64_t prepass_unsafe = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const std::optional<GraphUpdate> eff = b_.classifier->effective_update(batch[j]);
    if (!eff) {
      verdicts[j] = UpdateClass::kUnsafe;
      ++prepass_unsafe;
      continue;
    }
    eff_[j] = *eff;
    valid_[j] = 1;
    const bool insert = eff->op == UpdateOp::kInsertEdge;
    const graph::Label lab_u = g.label(eff->u);
    const graph::Label lab_v = g.label(eff->v);
    lu_[j] = lab_u;
    lv_[j] = lab_v;
    el_[j] = eff->label;
    du_[j] = g.degree(eff->u) + (insert ? 1 : 0);
    dv_[j] = g.degree(eff->v) + (insert ? 1 : 0);
    graph::NlfSig su = g.nlf_signature(eff->u);
    graph::NlfSig sv = g.nlf_signature(eff->v);
    if (insert) {
      su = graph::nlf_sig_add(su, lab_v);
      sv = graph::nlf_sig_add(sv, lab_u);
    }
    sig_u_[j] = su;
    sig_v_[j] = sv;
  }

  // The wide stage: one pass per oriented query edge over all lanes.
  util::wide::LaneView view;
  view.lu = lu_.data();
  view.lv = lv_.data();
  view.el = el_.data();
  view.du = du_.data();
  view.dv = dv_.data();
  view.sig_u = sig_u_.data();
  view.sig_v = sig_v_.data();
  view.padded = padded;
  for (const util::wide::EdgeTerm& t : terms_) {
    if (avx2_)
      util::wide::edge_masks_avx2(view, t, any_label_.data(), any_deg_.data(),
                                  any_alive_.data());
    else
      util::wide::edge_masks_swar(view, t, any_label_.data(), any_deg_.data(),
                                  any_alive_.data());
  }

  // Resolve lanes from the masks; the order and outcomes replicate
  // UpdateClassifier::classify_effective exactly (see DESIGN.md §11 for the
  // case-by-case equivalence argument).
  std::uint64_t label_rejects = 0, degree_rejects = 0, swar_prerejects = 0;
  fallback_.clear();
  for (std::size_t j = 0; j < count; ++j) {
    if (!valid_[j]) continue;
    if (any_label_[j] == 0) {
      verdicts[j] = UpdateClass::kSafeLabel;  // stage 1: no label-matching edge
      ++label_rejects;
      continue;
    }
    if (!has_ads_) {
      if (any_deg_[j] == 0) {
        verdicts[j] = UpdateClass::kSafeDegree;  // stage 2 decisive, no ADS
        ++degree_rejects;
        continue;
      }
      if (endpoint_local_ && any_alive_[j] == 0) {
        // Every label/degree-surviving pair failed the signature pre-reject
        // at an endpoint, so the algorithm's endpoint-local ads_safe is
        // implied true (CsmAlgorithm::ads_safe_endpoint_nlf contract).
        verdicts[j] = UpdateClass::kSafeAds;
        ++swar_prerejects;
        continue;
      }
    }
    // ADS-bearing algorithms always consult stage 3; endpoint-local proofs
    // that did not fire need the exact per-label NLF check. Either way the
    // scalar classifier decides.
    fallback_.push_back(static_cast<std::uint32_t>(j));
  }
  stats.serial_ns += serial.elapsed_ns();

  // Scalar fallback lanes: stride them over the pool like the CPU backend.
  const unsigned nthreads = b_.pool->size();
  if (nthreads > 1 && fallback_.size() > 1) {
    stats.ensure_size(nthreads);
    b_.pool->run([&](unsigned wid) {
      util::ThreadCpuTimer timer;
      for (std::size_t t = wid; t < fallback_.size(); t += nthreads) {
        const std::uint32_t j = fallback_[t];
        verdicts[j] = b_.classifier->classify_effective(eff_[j]);
      }
      stats.workers[wid].busy_ns += timer.elapsed_ns();
    });
    stats.dispatch_ns += b_.pool->last_dispatch_ns();
  } else {
    util::ThreadCpuTimer timer;
    for (const std::uint32_t j : fallback_)
      verdicts[j] = b_.classifier->classify_effective(eff_[j]);
    stats.serial_ns += timer.elapsed_ns();
  }

#ifdef PARACOSM_VERIFY
  // Per-batch oracle diff: the scalar classifier re-judges every lane and
  // any disagreement is a hard error (the wide masks claimed a proof they
  // do not have).
  for (std::size_t j = 0; j < count; ++j) {
    const UpdateClass oracle = b_.classifier->classify(batch[j]);
    if (oracle != verdicts[j])
      throw std::logic_error(
          "PARACOSM_VERIFY: wide backend verdict diverges from the scalar "
          "classifier at lane " +
          std::to_string(j) + " (wide=" +
          std::to_string(static_cast<int>(verdicts[j])) + " cpu=" +
          std::to_string(static_cast<int>(oracle)) + ")");
  }
  ++stats_.verify_diffs;
#endif

  count_verdicts(verdicts);
  stats_.prepass_unsafe += prepass_unsafe;
  stats_.label_rejects += label_rejects;
  stats_.degree_rejects += degree_rejects;
  stats_.swar_prerejects += swar_prerejects;
  stats_.scalar_fallbacks += fallback_.size();
  if (avx2_)
    ++stats_.avx2_batches;
  else
    ++stats_.swar_batches;
  if (downgraded_) ++stats_.fallback_activations;

#if defined(PARACOSM_TRACE_ENABLED)
  if (obs::trace_level() >= 1)
    obs::trace_complete(obs::EventKind::kBatchBackend, trace_t0, 1, count,
                        prepass_unsafe + label_rejects + degree_rejects +
                            swar_prerejects);
#endif
}

std::unique_ptr<BatchBackend> make_batch_backend(BatchBackendKind kind,
                                                 const BackendBind& bind,
                                                 util::wide::Dispatch dispatch) {
  switch (kind) {
    case BatchBackendKind::kCpu:
      return std::make_unique<CpuBackend>(bind);
    case BatchBackendKind::kWide:
    case BatchBackendKind::kAuto:
      return std::make_unique<WideBackend>(bind, dispatch);
  }
  return nullptr;
}

}  // namespace paracosm::engine
