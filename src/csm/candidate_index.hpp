// Dynamic candidate index: the auxiliary data structure family behind
// TurboFlux's DCG and Symbi's DCS.
//
// A query DAG is fixed offline (BFS from a root; TurboFlux keeps only the
// spanning tree arcs, Symbi keeps every edge). For each query vertex u and
// data vertex v two flags are maintained:
//
//   anc(u,v)  — v can play u considering u's ancestors:   stat(u,v) and for
//               every DAG parent p of u some neighbor w of v with a matching
//               edge label has anc(p,w).  (TurboFlux "explicit" direction /
//               Symbi D1.)
//   desc(u,v) — symmetric over DAG children.  (TurboFlux "implicit" / Symbi
//               D2.)
//
// where stat(u,v) = label(u)==label(v); the degree filter is applied at
// enumeration time, not stored in the index, which is what makes the
// classifier's label stage sound (a label-mismatched edge provably cannot
// flip any index state). A data vertex is a *candidate* of u iff both hold. Each flag is backed by per-arc counters
// (number of supporting neighbors), so a graph update costs O(affected):
// insertions can only turn flags on and deletions only off, and flips
// propagate along DAG arcs with a worklist.
//
// The index also implements the candidate-filtering stage of ParaCOSM's
// update classifier: `safe_insert`/`safe_remove` prove, *before* the update
// is applied, that it would flip no flag and that no match can pass through
// the edge (both endpoints would have to be candidates of a compatible query
// edge). Counter-only cache deltas are permitted for safe updates — they are
// confined to the two endpoints, which is what makes parallel safe
// application race-free in the batch executor's strict mode (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"

namespace paracosm::csm {

using graph::DataGraph;
using graph::Label;
using graph::QueryGraph;
using graph::VertexId;

/// Rooted orientation of the query graph used by the index.
struct QueryDag {
  struct Arc {
    VertexId other;      ///< the vertex on the far side of the arc
    Label elabel;        ///< query edge label
    std::uint32_t slot;  ///< index of *this* vertex inside `other`'s reverse list
  };

  std::vector<std::vector<Arc>> parents;   // arcs towards ancestors
  std::vector<std::vector<Arc>> children;  // arcs towards descendants
  std::vector<VertexId> topo;              // ascending (level, id)
  VertexId root = 0;

  /// BFS orientation from the max-degree vertex. `spanning_tree_only` keeps
  /// just the BFS tree arc per non-root vertex (TurboFlux); otherwise every
  /// query edge is oriented (Symbi).
  [[nodiscard]] static QueryDag build(const QueryGraph& q, bool spanning_tree_only);
};

class DagCandidateIndex {
 public:
  /// Rebuild from scratch for (q, g).
  void build(const QueryGraph& q, const DataGraph& g, bool spanning_tree_only,
             bool use_edge_labels = true);

  /// Maintenance hooks; the data graph must already reflect the change.
  void on_edge_inserted(VertexId v1, VertexId v2, Label elabel);
  void on_edge_removed(VertexId v1, VertexId v2, Label elabel);
  void on_vertex_added(VertexId id);
  void on_vertex_removed(VertexId id);

  [[nodiscard]] bool anc(VertexId u, VertexId v) const noexcept {
    return anc_[u][v] != 0;
  }
  [[nodiscard]] bool desc(VertexId u, VertexId v) const noexcept {
    return desc_[u][v] != 0;
  }
  [[nodiscard]] bool candidate(VertexId u, VertexId v) const noexcept {
    return anc_[u][v] != 0 && desc_[u][v] != 0;
  }

  /// Classifier stage 3 (evaluated BEFORE applying the update).
  [[nodiscard]] bool safe_insert(VertexId v1, VertexId v2, Label elabel) const;
  [[nodiscard]] bool safe_remove(VertexId v1, VertexId v2, Label elabel) const;

  /// Total candidate pairs (pruning-power statistic).
  [[nodiscard]] std::uint64_t num_candidate_pairs() const noexcept;

  /// Flag-for-flag equality — lets tests verify incremental maintenance
  /// against a freshly built index.
  [[nodiscard]] bool states_equal(const DagCandidateIndex& other) const noexcept;

  /// Rolling FNV-1a/XOR checksum over the (anc, desc) flag state, maintained
  /// in O(1) per flip (util/checksum.hpp). Two indexes over the same (Q, G)
  /// shapes are checksum-equal iff the same flag set is on, so the
  /// PARACOSM_VERIFY safe-update invariant costs O(1) per batch.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }
  /// O(|V(Q)|·cap) reference rescan of `checksum()` for tests.
  [[nodiscard]] std::uint64_t checksum_recompute() const noexcept;

 private:
  enum class Kind : std::uint8_t { kAnc, kDesc };
  struct Flip {
    Kind kind;
    VertexId u;
    VertexId v;
    bool on;
  };

  const QueryGraph* q_ = nullptr;
  const DataGraph* g_ = nullptr;
  QueryDag dag_;
  bool use_elabels_ = true;
  std::uint32_t cap_ = 0;

  std::vector<std::vector<std::uint8_t>> anc_, desc_;
  // cnt_anc_[u][v * parents(u).size() + slot]; likewise for desc/children.
  std::vector<std::vector<std::uint32_t>> cnt_anc_, cnt_desc_;
  std::uint64_t checksum_ = 0;

  /// Set a flag to `on`, folding the flip into `checksum_`. Returns true iff
  /// the value changed (the callers' flip-propagation predicate).
  bool set_anc(VertexId u, VertexId v, bool on) noexcept;
  bool set_desc(VertexId u, VertexId v, bool on) noexcept;

  /// Hugepage advice for query vertex u's candidate columns (read by every
  /// worker during search). Best-effort, DESIGN.md §10.
  void place_columns(VertexId u) noexcept;

  [[nodiscard]] bool stat(VertexId u, VertexId v) const noexcept;
  [[nodiscard]] bool eval_anc(VertexId u, VertexId v) const noexcept;
  [[nodiscard]] bool eval_desc(VertexId u, VertexId v) const noexcept;
  /// Post-update evaluations of the endpoint flags, with the pending edge's
  /// counter deltas applied virtually (sign = +1 insert / -1 remove).
  [[nodiscard]] bool would_anc(VertexId x, VertexId at, VertexId other, Label elabel,
                               std::int32_t sign) const noexcept;
  [[nodiscard]] bool would_desc(VertexId x, VertexId at, VertexId other, Label elabel,
                                std::int32_t sign) const noexcept;
  [[nodiscard]] bool safe_edge(VertexId v1, VertexId v2, Label elabel,
                               std::int32_t sign) const;

  /// Apply direct counter deltas contributed by data edge (a,b) in the given
  /// direction, for every compatible query arc; sign is +1/-1.
  void direct_deltas(VertexId a, VertexId b, Label elabel, std::int32_t sign);
  /// Re-evaluate both flags of every (x, v) pair and enqueue flips.
  void reeval_pairs_of(VertexId v, std::vector<Flip>& queue);
  void drain(std::vector<Flip>& queue);
};

}  // namespace paracosm::csm
