// Dynamic labeled data graph G.
//
// Layout (see DESIGN.md §1):
//
//  * Label-partitioned adjacency. Each vertex's neighbor vector is kept
//    sorted by (neighbor's vertex label, neighbor id) and paired with a
//    small per-vertex directory of (label, end-offset) segments. Candidate
//    enumeration asks for `neighbors_with_label(v, l)` and walks only the
//    matching-label segment as a span; `edge_label` locates the segment via
//    the directory and then gallops within it, so consistency checks during
//    backtracking cost O(log |segment|) instead of O(log d).
//
//  * Incrementally maintained NLF. The directory doubles as the exact
//    neighbor-label-frequency table: nlf(v, l) is the width of l's segment,
//    maintained O(1)-amortized by add_edge/remove_edge instead of an O(d)
//    rescan per query. Each vertex additionally carries a packed 64-bit
//    signature (nlf_signature.hpp); a mutation refreshes only the touched
//    lane, recomputing its exact total from the (small, cache-hot) segment
//    directory, so no per-lane counter array bloats the vertex record.
//    Filters use the signature as a one-instruction containment pre-reject
//    before the exact check. `nlf_recount(v, l)` keeps the O(d) reference
//    scan for tests/benches.
//
//  * Tombstoned label buckets. `by_label_[l]` records vertex ids plus a
//    dead-entry counter; `remove_vertex`/relabel retire entries lazily (a
//    stale entry is one whose vertex died, changed label, or was revived at
//    a different bucket position) and a bucket compacts itself once more
//    than half its entries are dead. `count_vertices_with_label` is O(1)
//    and `label_view(l)` iterates live ids without materializing a vector.
//
// Concurrency invariant (DESIGN.md §4): mutation is single-writer by
// default; the batch executor applies *safe* updates concurrently under
// external striped per-vertex locks. That argument relies on a safe edge
// update touching only its two endpoints' records — which still holds here:
// an edge mutation updates the adjacency vector, segment directory, and
// NLF signature of exactly the two endpoint VertexRecs (the
// neighbor's label is read from an immutable-under-edge-ops field), leaves
// `by_label_` untouched, and bumps only the atomic edge counter. Strict
// mode's endpoint-disjointness therefore remains a race-freedom proof.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "graph/nlf_signature.hpp"
#include "graph/types.hpp"

namespace paracosm::graph {

/// Why a checked mutation did (or did not) change the graph. kApplied is the
/// only success value; every rejection names the precise edge case so
/// executors and the service layer can skip + count instead of asserting.
enum class MutationStatus : std::uint8_t {
  kApplied,
  kDuplicateEdge,   ///< insert of an edge that already exists
  kMissingEdge,     ///< delete of an edge that does not exist
  kMissingVertex,   ///< edge op naming a dead/unknown endpoint
  kSelfLoop,        ///< insert with u == v
  kVertexExists,    ///< vertex insert for an alive id with the same label
  kInvalidId,       ///< id/label beyond the admission caps (types.hpp)
};

[[nodiscard]] constexpr const char* to_string(MutationStatus s) noexcept {
  switch (s) {
    case MutationStatus::kApplied: return "applied";
    case MutationStatus::kDuplicateEdge: return "duplicate-edge";
    case MutationStatus::kMissingEdge: return "missing-edge";
    case MutationStatus::kMissingVertex: return "missing-vertex";
    case MutationStatus::kSelfLoop: return "self-loop";
    case MutationStatus::kVertexExists: return "vertex-exists";
    case MutationStatus::kInvalidId: return "invalid-id";
  }
  return "?";
}

class DataGraph {
 public:
  DataGraph() = default;

  DataGraph(const DataGraph& other);
  DataGraph& operator=(const DataGraph& other);
  DataGraph(DataGraph&&) noexcept = default;
  DataGraph& operator=(DataGraph&&) noexcept = default;

  /// Append a vertex with the given label; returns its id.
  VertexId add_vertex(Label label);
  /// Ensure vertex `id` exists (filling gaps with dead vertices) and set its
  /// label — used by file loaders with explicit ids. Relabeling an alive
  /// vertex repositions it in the label buckets and in its neighbors'
  /// label-partitioned adjacency.
  void add_vertex_with_id(VertexId id, Label label);
  /// Remove a vertex and all incident edges. Returns number of edges removed.
  std::size_t remove_vertex(VertexId id);

  /// Insert undirected edge (u,v) with label. Returns false if it already
  /// exists or endpoints are invalid (duplicate inserts are ignored, matching
  /// streaming-benchmark semantics).
  bool add_edge(VertexId u, VertexId v, Label elabel);
  /// Remove edge (u,v); returns its label if it existed.
  std::optional<Label> remove_edge(VertexId u, VertexId v);

  /// Apply or revert a GraphUpdate. Returns true if the graph changed.
  bool apply(const GraphUpdate& upd);

  /// Diagnosing twin of apply(): same state transitions for every input
  /// (`apply_checked(u) changes the graph` ⇔ `apply(u)` would), but reports
  /// *why* a no-op was a no-op. Purely a pre-classification plus apply(); it
  /// never mutates on a rejection path. Used by the service layer and the
  /// fuzzer's invalid-op mix (ISSUE 4 satellite).
  MutationStatus apply_checked(const GraphUpdate& upd);

  [[nodiscard]] bool has_vertex(VertexId id) const noexcept {
    return id < vertices_.size() && vertices_[id].alive;
  }
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;
  [[nodiscard]] std::optional<Label> edge_label(VertexId u, VertexId v) const noexcept;
  /// Hot-path variant for callers that already know `v`'s vertex label
  /// (e.g. the backtracking consistency check, where it equals the query
  /// label): skips the vertices_[v] load. Precondition: both ids valid and
  /// v_label == label(v).
  [[nodiscard]] std::optional<Label> edge_label(VertexId u, VertexId v,
                                                Label v_label) const noexcept;

  [[nodiscard]] Label label(VertexId u) const noexcept { return vertices_[u].label; }
  [[nodiscard]] std::uint32_t degree(VertexId u) const noexcept {
    return static_cast<std::uint32_t>(vertices_[u].nbrs.size());
  }
  /// Full adjacency of `u`, sorted by (neighbor label, neighbor id).
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId u) const noexcept {
    return vertices_[u].nbrs;
  }
  /// The contiguous segment of u's adjacency whose neighbors carry vertex
  /// label `l` (sorted by id). O(log #distinct-neighbor-labels).
  [[nodiscard]] std::span<const Neighbor> neighbors_with_label(VertexId u,
                                                               Label l) const noexcept;

  /// Number of vertex slots ever allocated (ids are dense in [0, size)).
  [[nodiscard]] std::uint32_t vertex_capacity() const noexcept {
    return static_cast<std::uint32_t>(vertices_.size());
  }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return alive_; }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return num_edges_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double average_degree() const noexcept {
    return alive_ ? 2.0 * static_cast<double>(num_edges()) / alive_ : 0.0;
  }

  /// Number of neighbors of `v` with vertex label `l` (data-side NLF).
  /// O(log #distinct-neighbor-labels) directory lookup, not an O(d) scan.
  [[nodiscard]] std::uint32_t nlf(VertexId v, Label l) const noexcept {
    const auto seg = neighbors_with_label(v, l);
    return static_cast<std::uint32_t>(seg.size());
  }
  /// O(d) reference recount of nlf(v, l); kept for tests and microbenches.
  [[nodiscard]] std::uint32_t nlf_recount(VertexId v, Label l) const noexcept;
  /// Packed 64-bit NLF signature of `v`, maintained O(1) per edge mutation.
  [[nodiscard]] NlfSig nlf_signature(VertexId v) const noexcept {
    return vertices_[v].sig;
  }

  /// Non-materializing iteration over alive vertices with a given label.
  /// Skips tombstoned bucket entries in place.
  class LabelView {
   public:
    class iterator {
     public:
      using value_type = VertexId;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::forward_iterator_tag;

      iterator() = default;
      iterator(const DataGraph* g, Label l, std::uint32_t i) : g_(g), l_(l), i_(i) {
        skip_dead();
      }
      VertexId operator*() const noexcept { return g_->by_label_[l_].ids[i_]; }
      iterator& operator++() noexcept {
        ++i_;
        skip_dead();
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator tmp = *this;
        ++*this;
        return tmp;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.i_ == b.i_;
      }

     private:
      void skip_dead() noexcept {
        const auto& ids = g_->by_label_[l_].ids;
        while (i_ < ids.size() && !g_->bucket_entry_live(l_, i_)) ++i_;
      }
      const DataGraph* g_ = nullptr;
      Label l_ = 0;
      std::uint32_t i_ = 0;
    };

    LabelView(const DataGraph* g, Label l) : g_(g), l_(l) {}
    [[nodiscard]] iterator begin() const noexcept {
      if (g_ == nullptr) return iterator();
      return iterator(g_, l_, 0);
    }
    [[nodiscard]] iterator end() const noexcept {
      if (g_ == nullptr) return iterator();
      return iterator(g_, l_,
                      static_cast<std::uint32_t>(g_->by_label_[l_].ids.size()));
    }

   private:
    const DataGraph* g_ = nullptr;  // null -> empty view (label unseen)
    Label l_ = 0;
  };

  /// Lazily filtered view over alive vertices labeled `l` (no allocation).
  [[nodiscard]] LabelView label_view(Label l) const noexcept {
    if (l >= by_label_.size()) return LabelView(nullptr, l);
    return LabelView(this, l);
  }
  /// Exact number of alive vertices labeled `l` (O(1): bucket size − dead).
  [[nodiscard]] std::uint32_t count_vertices_with_label(Label l) const noexcept {
    if (l >= by_label_.size()) return 0;
    const LabelBucket& b = by_label_[l];
    return static_cast<std::uint32_t>(b.ids.size()) - b.dead;
  }
  /// Materialized list of alive vertices labeled `l` (prefer label_view()).
  [[nodiscard]] std::vector<VertexId> vertices_with_label(Label l) const;

  /// Materialized edge list (u < v), e.g. for building update streams.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  [[nodiscard]] std::uint32_t num_vertex_labels() const;
  [[nodiscard]] std::uint32_t num_edge_labels() const;

  /// Structural equality (labels + adjacency of alive vertices) — used by
  /// tests to verify that "safe" updates leave indices consistent.
  [[nodiscard]] bool same_structure(const DataGraph& other) const;

 private:
  /// Directory entry: neighbors with vertex label `label` occupy
  /// nbrs[prev.end, end). Entries sorted by label; first segment starts at 0.
  /// Emptied segments persist with width 0 (see erase_directed), so the
  /// directory size is bounded by the distinct labels ever adjacent.
  struct LabelSeg {
    Label label;
    std::uint32_t end;
  };

  struct VertexRec {
    Label label = 0;
    bool alive = false;
    std::uint32_t bucket_pos = 0;  ///< index of the live entry in by_label_
    NlfSig sig = 0;                ///< packed NLF signature (O(1) maintained)
    std::vector<Neighbor> nbrs;    ///< sorted by (label(v), v)
    std::vector<LabelSeg> segs;    ///< label-range directory over nbrs
  };

  /// Label bucket with tombstones: an entry `ids[i]` is live iff its vertex
  /// is alive, still carries this label, and `bucket_pos == i` (revival or
  /// relabel appends a fresh entry, orphaning the old one). `dead` counts
  /// stale entries exactly; buckets compact once dead*2 > size.
  struct LabelBucket {
    std::vector<VertexId> ids;
    std::uint32_t dead = 0;
  };

  std::vector<VertexRec> vertices_;
  std::vector<LabelBucket> by_label_;
  std::atomic<std::uint64_t> num_edges_{0};
  std::uint32_t alive_ = 0;
  std::size_t hugepage_advised_cap_ = 0;  ///< vertices_ capacity last
                                          ///< given hugepage advice

  [[nodiscard]] bool bucket_entry_live(Label l, std::uint32_t i) const noexcept {
    const VertexId id = by_label_[l].ids[i];
    const VertexRec& r = vertices_[id];
    return r.alive && r.label == l && r.bucket_pos == i;
  }
  void bucket_push(VertexId id, Label l);
  void bucket_retire(Label l);

  /// [begin, end) offsets of label `l`'s segment in `rec.nbrs` (empty if
  /// absent, positioned at the insertion point).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> seg_range(
      const VertexRec& rec, Label l) const noexcept;

  bool insert_directed(VertexId from, VertexId to, Label elabel);
  /// Remove `to` from `from`'s adjacency; returns the edge label if present.
  std::optional<Label> erase_directed(VertexId from, VertexId to) noexcept;
  /// Refresh the signature lane that `neighbor_label` hashes into, summing
  /// the widths of that lane's directory segments (exact, collision-safe).
  void lane_refresh(VertexRec& rec, Label neighbor_label) noexcept;
};

}  // namespace paracosm::graph
