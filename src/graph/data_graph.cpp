#include "graph/data_graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/hugepage.hpp"

namespace paracosm::graph {

namespace {

/// First index in nbrs[lo, hi) (sorted by id) whose id is >= v: exponential
/// probe from the segment front, then binary search inside the bracketed
/// window. O(log distance) for hits near the front, O(log |segment|) worst
/// case — the galloping consistency check of the backtracking hot path.
[[nodiscard]] std::uint32_t gallop_find(const std::vector<Neighbor>& nbrs,
                                        std::uint32_t lo, std::uint32_t hi,
                                        VertexId v) noexcept {
  if (lo >= hi || nbrs[lo].v >= v) return lo;
  std::uint64_t bound = 1;
  while (lo + bound < hi && nbrs[lo + bound].v < v) bound <<= 1;
  auto left = lo + static_cast<std::uint32_t>(bound >> 1);
  auto right = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(hi, static_cast<std::uint64_t>(lo) + bound));
  while (left < right) {
    const std::uint32_t mid = left + (right - left) / 2;
    if (nbrs[mid].v < v)
      left = mid + 1;
    else
      right = mid;
  }
  return left;
}

}  // namespace

DataGraph::DataGraph(const DataGraph& other)
    : vertices_(other.vertices_),
      by_label_(other.by_label_),
      num_edges_(other.num_edges_.load(std::memory_order_relaxed)),
      alive_(other.alive_) {}

DataGraph& DataGraph::operator=(const DataGraph& other) {
  if (this != &other) {
    vertices_ = other.vertices_;
    by_label_ = other.by_label_;
    num_edges_.store(other.num_edges_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    alive_ = other.alive_;
  }
  return *this;
}

VertexId DataGraph::add_vertex(Label label) {
  const auto id = static_cast<VertexId>(vertices_.size());
  add_vertex_with_id(id, label);
  return id;
}

void DataGraph::add_vertex_with_id(VertexId id, Label label) {
  if (id >= vertices_.size()) {
    vertices_.resize(id + 1);
    // Vertex table: read by every worker during enumeration. Hugepage
    // advice once per capacity jump (best-effort, DESIGN.md §10).
    if (vertices_.capacity() != hugepage_advised_cap_) {
      util::advise_hugepages(vertices_.data(),
                             vertices_.capacity() * sizeof(VertexRec));
      hugepage_advised_cap_ = vertices_.capacity();
    }
  }
  VertexRec& rec = vertices_[id];
  if (rec.alive && rec.label == label) return;
  if (rec.alive) {
    // Relabel: reposition this vertex inside each neighbor's
    // label-partitioned adjacency (their segment for us moves), then move
    // the bucket entry. Our own adjacency is unaffected — neighbor labels
    // did not change.
    const Label old_label = rec.label;
    const std::vector<Neighbor> saved = rec.nbrs;
    for (const Neighbor& nb : saved) erase_directed(nb.v, id);
    rec.label = label;
    for (const Neighbor& nb : saved) insert_directed(nb.v, id, nb.elabel);
    bucket_retire(old_label);
  } else {
    rec.alive = true;
    rec.label = label;
    ++alive_;
  }
  bucket_push(id, label);
}

std::size_t DataGraph::remove_vertex(VertexId id) {
  if (!has_vertex(id)) return 0;
  VertexRec& rec = vertices_[id];
  const std::size_t removed = rec.nbrs.size();
  for (const Neighbor& nb : rec.nbrs) erase_directed(nb.v, id);
  num_edges_.fetch_sub(removed, std::memory_order_relaxed);
  rec.nbrs.clear();
  rec.segs.clear();
  rec.sig = 0;
  rec.alive = false;
  --alive_;
  bucket_retire(rec.label);
  return removed;
}

bool DataGraph::add_edge(VertexId u, VertexId v, Label elabel) {
  if (u == v || !has_vertex(u) || !has_vertex(v)) return false;
  // insert_directed detects duplicates itself; no separate has_edge probe.
  if (!insert_directed(u, v, elabel)) return false;
  insert_directed(v, u, elabel);
  num_edges_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<Label> DataGraph::remove_edge(VertexId u, VertexId v) {
  if (!has_vertex(u) || !has_vertex(v)) return std::nullopt;
  const auto label = erase_directed(u, v);
  if (!label) return std::nullopt;
  erase_directed(v, u);
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return label;
}

MutationStatus DataGraph::apply_checked(const GraphUpdate& upd) {
  switch (upd.op) {
    case UpdateOp::kInsertEdge:
    case UpdateOp::kRemoveEdge: {
      if (upd.u > kMaxVertexId || upd.v > kMaxVertexId ||
          upd.label > kMaxLabel) {
        return MutationStatus::kInvalidId;
      }
      if (upd.u == upd.v) return MutationStatus::kSelfLoop;
      if (!has_vertex(upd.u) || !has_vertex(upd.v))
        return MutationStatus::kMissingVertex;
      if (upd.op == UpdateOp::kInsertEdge) {
        return add_edge(upd.u, upd.v, upd.label) ? MutationStatus::kApplied
                                                 : MutationStatus::kDuplicateEdge;
      }
      return remove_edge(upd.u, upd.v) ? MutationStatus::kApplied
                                       : MutationStatus::kMissingEdge;
    }
    case UpdateOp::kInsertVertex: {
      if (upd.u > kMaxVertexId || upd.label > kMaxLabel)
        return MutationStatus::kInvalidId;
      if (has_vertex(upd.u) && label(upd.u) == upd.label)
        return MutationStatus::kVertexExists;
      add_vertex_with_id(upd.u, upd.label);
      return MutationStatus::kApplied;
    }
    case UpdateOp::kRemoveVertex:
      if (upd.u > kMaxVertexId) return MutationStatus::kInvalidId;
      if (!has_vertex(upd.u)) return MutationStatus::kMissingVertex;
      remove_vertex(upd.u);
      return MutationStatus::kApplied;
  }
  return MutationStatus::kInvalidId;
}

bool DataGraph::apply(const GraphUpdate& upd) {
  switch (upd.op) {
    case UpdateOp::kInsertEdge:
      return add_edge(upd.u, upd.v, upd.label);
    case UpdateOp::kRemoveEdge:
      return remove_edge(upd.u, upd.v).has_value();
    case UpdateOp::kInsertVertex:
      add_vertex_with_id(upd.u, upd.label);
      return true;
    case UpdateOp::kRemoveVertex:
      if (!has_vertex(upd.u)) return false;
      remove_vertex(upd.u);
      return true;
  }
  return false;
}

bool DataGraph::has_edge(VertexId u, VertexId v) const noexcept {
  return edge_label(u, v).has_value();
}

std::optional<Label> DataGraph::edge_label(VertexId u, VertexId v) const noexcept {
  if (u >= vertices_.size() || v >= vertices_.size()) return std::nullopt;
  return edge_label(u, v, vertices_[v].label);
}

std::optional<Label> DataGraph::edge_label(VertexId u, VertexId v,
                                           Label v_label) const noexcept {
  const VertexRec& rec = vertices_[u];
  const auto [lo, hi] = seg_range(rec, v_label);
  const std::uint32_t idx = gallop_find(rec.nbrs, lo, hi, v);
  if (idx >= hi || rec.nbrs[idx].v != v) return std::nullopt;
  return rec.nbrs[idx].elabel;
}

std::span<const Neighbor> DataGraph::neighbors_with_label(VertexId u,
                                                          Label l) const noexcept {
  if (u >= vertices_.size()) return {};
  const VertexRec& rec = vertices_[u];
  const auto [lo, hi] = seg_range(rec, l);
  return {rec.nbrs.data() + lo, static_cast<std::size_t>(hi - lo)};
}

std::uint32_t DataGraph::nlf_recount(VertexId v, Label l) const noexcept {
  std::uint32_t count = 0;
  for (const Neighbor& nb : vertices_[v].nbrs)
    if (vertices_[nb.v].label == l) ++count;
  return count;
}

std::vector<VertexId> DataGraph::vertices_with_label(Label l) const {
  std::vector<VertexId> out;
  out.reserve(count_vertices_with_label(l));
  for (const VertexId id : label_view(l)) out.push_back(id);
  return out;
}

std::vector<Edge> DataGraph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < vertices_.size(); ++u) {
    if (!vertices_[u].alive) continue;
    for (const Neighbor& nb : vertices_[u].nbrs)
      if (u < nb.v) out.push_back({u, nb.v, nb.elabel});
  }
  return out;
}

std::uint32_t DataGraph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (const VertexRec& rec : vertices_)
    if (rec.alive) best = std::max(best, static_cast<std::uint32_t>(rec.nbrs.size()));
  return best;
}

std::uint32_t DataGraph::num_vertex_labels() const {
  std::unordered_set<Label> labels;
  for (const VertexRec& rec : vertices_)
    if (rec.alive) labels.insert(rec.label);
  return static_cast<std::uint32_t>(labels.size());
}

std::uint32_t DataGraph::num_edge_labels() const {
  std::unordered_set<Label> labels;
  for (const VertexRec& rec : vertices_)
    if (rec.alive)
      for (const Neighbor& nb : rec.nbrs) labels.insert(nb.elabel);
  return static_cast<std::uint32_t>(labels.size());
}

bool DataGraph::same_structure(const DataGraph& other) const {
  if (vertex_capacity() != other.vertex_capacity()) return false;
  if (num_edges() != other.num_edges()) return false;
  for (VertexId u = 0; u < vertices_.size(); ++u) {
    const VertexRec& a = vertices_[u];
    const VertexRec& b = other.vertices_[u];
    if (a.alive != b.alive) return false;
    if (!a.alive) continue;
    if (a.label != b.label) return false;
    if (a.nbrs.size() != b.nbrs.size()) return false;
    // The (label, id) sort is canonical given equal labels, so element-wise
    // comparison is order-insensitive structural equality.
    for (std::size_t i = 0; i < a.nbrs.size(); ++i)
      if (a.nbrs[i].v != b.nbrs[i].v || a.nbrs[i].elabel != b.nbrs[i].elabel)
        return false;
  }
  return true;
}

void DataGraph::bucket_push(VertexId id, Label l) {
  if (l >= by_label_.size()) by_label_.resize(l + 1);
  LabelBucket& b = by_label_[l];
  vertices_[id].bucket_pos = static_cast<std::uint32_t>(b.ids.size());
  b.ids.push_back(id);
}

void DataGraph::bucket_retire(Label l) {
  // Caller has already made the entry stale (vertex died, relabeled, or was
  // revived elsewhere) — the live test below must see the new state.
  LabelBucket& b = by_label_[l];
  ++b.dead;
  if (static_cast<std::size_t>(b.dead) * 2 > b.ids.size()) {
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < b.ids.size(); ++i) {
      if (!bucket_entry_live(l, i)) continue;
      const VertexId id = b.ids[i];
      b.ids[out] = id;
      vertices_[id].bucket_pos = out;
      ++out;
    }
    b.ids.resize(out);
    b.dead = 0;
  }
}

std::pair<std::uint32_t, std::uint32_t> DataGraph::seg_range(const VertexRec& rec,
                                                             Label l) const noexcept {
  const auto it = std::lower_bound(
      rec.segs.begin(), rec.segs.end(), l,
      [](const LabelSeg& s, Label lbl) noexcept { return s.label < lbl; });
  const std::uint32_t lo = it == rec.segs.begin() ? 0 : std::prev(it)->end;
  if (it == rec.segs.end() || it->label != l) return {lo, lo};
  return {lo, it->end};
}

bool DataGraph::insert_directed(VertexId from, VertexId to, Label elabel) {
  VertexRec& rec = vertices_[from];
  const Label tl = vertices_[to].label;
  auto dit = std::lower_bound(
      rec.segs.begin(), rec.segs.end(), tl,
      [](const LabelSeg& s, Label lbl) noexcept { return s.label < lbl; });
  const std::uint32_t lo =
      dit == rec.segs.begin() ? 0 : std::prev(dit)->end;
  const std::size_t dpos = static_cast<std::size_t>(dit - rec.segs.begin());
  if (dit == rec.segs.end() || dit->label != tl)
    rec.segs.insert(dit, LabelSeg{tl, lo});
  const std::uint32_t hi = rec.segs[dpos].end;
  const std::uint32_t idx = gallop_find(rec.nbrs, lo, hi, to);
  if (idx < hi && rec.nbrs[idx].v == to) return false;
  rec.nbrs.insert(rec.nbrs.begin() + idx, Neighbor{to, elabel});
  for (std::size_t i = dpos; i < rec.segs.size(); ++i) ++rec.segs[i].end;
  lane_refresh(rec, tl);
  return true;
}

std::optional<Label> DataGraph::erase_directed(VertexId from, VertexId to) noexcept {
  VertexRec& rec = vertices_[from];
  const Label tl = vertices_[to].label;
  const auto dit = std::lower_bound(
      rec.segs.begin(), rec.segs.end(), tl,
      [](const LabelSeg& s, Label lbl) noexcept { return s.label < lbl; });
  if (dit == rec.segs.end() || dit->label != tl) return std::nullopt;
  const std::uint32_t lo = dit == rec.segs.begin() ? 0 : std::prev(dit)->end;
  const std::uint32_t hi = dit->end;
  const std::uint32_t idx = gallop_find(rec.nbrs, lo, hi, to);
  if (idx >= hi || rec.nbrs[idx].v != to) return std::nullopt;
  const Label elabel = rec.nbrs[idx].elabel;
  rec.nbrs.erase(rec.nbrs.begin() + idx);
  for (auto it = dit; it != rec.segs.end(); ++it) --it->end;
  // An emptied segment stays in the directory (width 0): labels recur in
  // streams, so keeping it spares a memmove pair per add/remove cycle. The
  // directory stays bounded by the number of distinct labels ever adjacent.
  lane_refresh(rec, tl);
  return elabel;
}

void DataGraph::lane_refresh(VertexRec& rec, Label neighbor_label) noexcept {
  const unsigned lane = nlf_sig_lane(neighbor_label);
  std::uint32_t total = 0;
  std::uint32_t prev = 0;
  for (const LabelSeg& s : rec.segs) {
    if (nlf_sig_lane(s.label) == lane) total += s.end - prev;
    prev = s.end;
  }
  rec.sig = nlf_sig_with_lane(rec.sig, lane, total);
}

}  // namespace paracosm::graph
