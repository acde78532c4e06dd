// Update type classifier (paper §4.2): the three-stage filter that decides
// whether an update is *safe* — i.e. provably affects neither the match set
// nor the algorithm's auxiliary data structure — and may therefore be
// processed in parallel by the batch executor.
//
//   stage 1 (label):  the edge's (endpoint label, endpoint label, edge label)
//                     triple matches no query edge;
//   stage 2 (degree): every label-compatible query edge fails the degree
//                     filter at the endpoints;
//   stage 3 (ADS):    the algorithm's own filtering rule (CsmAlgorithm::
//                     ads_safe) proves the ADS is untouched and no match can
//                     pass through the edge.
//
// Soundness subtlety (DESIGN.md §4): for algorithms that maintain an ADS,
// stage 2 alone proves only that no *match* appears — the ADS could still
// change (the edge may support candidates elsewhere). The classifier
// therefore consults stage 3 for every ADS-bearing algorithm, and stage 2 is
// decisive on its own only for index-free algorithms (GraphFlow, NewSP).
#pragma once

#include <optional>

#include "csm/algorithm.hpp"
#include "paracosm/stats.hpp"

namespace paracosm::engine {

enum class UpdateClass : std::uint8_t {
  kSafeLabel,      // decided by stage 1
  kSafeDegree,     // decided by stage 2 (stage 3 consulted when an ADS exists)
  kSafeAds,        // decided by stage 3
  kUnsafe,
};

[[nodiscard]] constexpr bool is_safe(UpdateClass c) noexcept {
  return c != UpdateClass::kUnsafe;
}

class UpdateClassifier {
 public:
  UpdateClassifier(const graph::QueryGraph& q, const graph::DataGraph& g,
                   const csm::CsmAlgorithm& alg) noexcept
      : q_(q), g_(g), alg_(alg) {}

  /// Classify `upd` against the current graph/ADS state (read-only; safe to
  /// call concurrently for updates with pairwise-disjoint endpoints while
  /// safe updates are being applied — see DESIGN.md §4).
  [[nodiscard]] UpdateClass classify(const graph::GraphUpdate& upd) const;

  /// classify + stats bookkeeping.
  UpdateClass classify_counted(const graph::GraphUpdate& upd,
                               ClassifierStats& stats) const;

  /// Prepass shared with the batch backends (batch_backend.cpp): validity
  /// screening plus delete-label resolution. nullopt means the update is
  /// kUnsafe before any stage runs (vertex op, missing endpoint, self-loop,
  /// duplicate insert / phantom removal); otherwise the returned update has
  /// its edge label resolved and classify_effective() decides stages 1–3.
  [[nodiscard]] std::optional<graph::GraphUpdate> effective_update(
      const graph::GraphUpdate& upd) const;

  /// Stages 1–3 on an already-resolved update (see effective_update()).
  [[nodiscard]] UpdateClass classify_effective(const graph::GraphUpdate& eff) const;

 private:
  [[nodiscard]] UpdateClass classify_impl(const graph::GraphUpdate& upd) const;

  const graph::QueryGraph& q_;
  const graph::DataGraph& g_;
  const csm::CsmAlgorithm& alg_;
};

}  // namespace paracosm::engine
