#include "paracosm/classifier.hpp"

#include "obs/trace_ring.hpp"

namespace paracosm::engine {

std::optional<graph::GraphUpdate> effective_update(const graph::DataGraph& g,
                                                   const graph::GraphUpdate& upd) {
  using graph::UpdateOp;
  // Vertex operations are trivial but touch index storage; the sequential
  // path handles them (they are rare in CSM streams).
  if (!upd.is_edge_op()) return std::nullopt;
  if (!g.has_vertex(upd.u) || !g.has_vertex(upd.v) || upd.u == upd.v)
    return std::nullopt;
  // Duplicate inserts / phantom removals are no-ops; route them through the
  // sequential path, which detects and skips them.
  const bool insert = upd.op == UpdateOp::kInsertEdge;
  if (insert == g.has_edge(upd.u, upd.v)) return std::nullopt;

  // Deletion requests may omit the edge label ("-e u v"); classify against
  // the actual label or stage 1/3 would judge the wrong edge (the engines
  // resolve it the same way — see csm/engine.cpp).
  graph::GraphUpdate eff = upd;
  if (!insert) {
    const auto actual_label = g.edge_label(upd.u, upd.v);
    if (!actual_label) return std::nullopt;
    eff.label = *actual_label;
  }
  return eff;
}

UpdateClass UpdateClassifier::classify(const graph::GraphUpdate& upd) const {
#if defined(PARACOSM_TRACE_ENABLED)
  // The verdict is part of the span's args, so an RAII scope cannot capture
  // it; stamp the start and record the completed span around the impl.
  if (obs::trace_level() >= obs::event_level(obs::EventKind::kClassify)) {
    const std::int64_t t0 = obs::now_ns();
    const UpdateClass c = classify_impl(upd);
    obs::trace_complete(obs::EventKind::kClassify, t0,
                        static_cast<std::uint64_t>(c), upd.u, upd.v);
    return c;
  }
#endif
  return classify_impl(upd);
}

UpdateClass UpdateClassifier::classify_impl(const graph::GraphUpdate& upd) const {
  const std::optional<graph::GraphUpdate> eff = effective_update(g_, upd);
  if (!eff) return UpdateClass::kUnsafe;
  const bool insert = eff->op == graph::UpdateOp::kInsertEdge;

  // Stage 1: label filtering.
  const auto pairs = q_.matching_edges(g_.label(eff->u), g_.label(eff->v), eff->label,
                                       !alg_.uses_edge_labels());
  if (pairs.empty()) return UpdateClass::kSafeLabel;

  // Stage 2: degree filtering (with degrees as they will be once the edge
  // exists: insertion adds one to both endpoints).
  const std::uint32_t du = g_.degree(eff->u) + (insert ? 1 : 0);
  const std::uint32_t dv = g_.degree(eff->v) + (insert ? 1 : 0);
  bool degree_feasible = false;
  for (const auto& [u1, u2] : pairs) {
    if (du >= q_.degree(u1) && dv >= q_.degree(u2)) {
      degree_feasible = true;
      break;
    }
  }

  if (!alg_.has_ads()) {
    if (!degree_feasible) return UpdateClass::kSafeDegree;
    return alg_.ads_safe(*eff) ? UpdateClass::kSafeAds : UpdateClass::kUnsafe;
  }
  // ADS-bearing algorithm: stage 3 must always confirm the index is
  // untouched; stage 2 only contributes the attribution.
  if (!alg_.ads_safe(*eff)) return UpdateClass::kUnsafe;
  return degree_feasible ? UpdateClass::kSafeAds : UpdateClass::kSafeDegree;
}

}  // namespace paracosm::engine
