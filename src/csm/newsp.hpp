// NewSP (Li et al., ICDE'24): decoupled CPT/EXP search process.
//
// No persistent ADS (O(1) index update). The traversal decouples
// compatible-set computation (CPT) from expansion (EXP): at every step the
// sizes of the compatible sets of ALL frontier query vertices are estimated
// first, and only the cheapest one is materialized and expanded — a dynamic
// matching order that defers expansion until it is provably needed.
#pragma once

#include "csm/algorithm.hpp"
#include "csm/scratch.hpp"

namespace paracosm::csm {

class NewSP final : public CsmAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "newsp"; }

  void attach(const QueryGraph& q, const DataGraph& g) override {
    query_ = &q;
    graph_ = &g;
  }

  /// Graph-only safety proof via neighbor-label-frequency containment: an
  /// endpoint that cannot NLF-dominate any compatible query vertex can never
  /// participate in a new match.
  [[nodiscard]] bool ads_safe(const GraphUpdate& upd) const override;

  void seeds(const GraphUpdate& upd, std::vector<SearchTask>& out) const override;
  void expand(const SearchTask& task, MatchSink& sink, SplitHook* hook) const override;

 private:
  /// NLF containment of data vertex v over query vertex u, with the pending
  /// edge to `extra_label` counted when extra_valid (classifier runs before
  /// the update is applied). Signature pre-reject, then exact per-label check.
  [[nodiscard]] bool nlf_dominates(VertexId u, VertexId v, bool count_extra,
                                   Label extra_label) const;

  void expand_step(SearchScratch& s, MatchSink& sink, SplitHook* hook) const;
};

}  // namespace paracosm::csm
