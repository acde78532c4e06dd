#include "csm/candidate_index.hpp"

#include <algorithm>
#include <queue>

#include "csm/filters.hpp"
#include "util/checksum.hpp"
#include "util/hugepage.hpp"

namespace paracosm::csm {

QueryDag QueryDag::build(const QueryGraph& q, bool spanning_tree_only) {
  const std::uint32_t n = q.num_vertices();
  QueryDag dag;
  dag.parents.resize(n);
  dag.children.resize(n);
  if (n == 0) return dag;

  // Root: max degree (the classic DCS/DCG heuristic), tie-break min id.
  VertexId root = 0;
  for (VertexId u = 1; u < n; ++u)
    if (q.degree(u) > q.degree(root)) root = u;
  dag.root = root;

  // BFS levels.
  std::vector<std::uint32_t> level(n, ~0u);
  std::vector<VertexId> bfs_parent(n, graph::kInvalidVertex);
  std::queue<VertexId> bfs;
  bfs.push(root);
  level[root] = 0;
  std::vector<VertexId> order;
  while (!bfs.empty()) {
    const VertexId u = bfs.front();
    bfs.pop();
    order.push_back(u);
    for (const auto& nb : q.neighbors(u)) {
      if (level[nb.v] == ~0u) {
        level[nb.v] = level[u] + 1;
        bfs_parent[nb.v] = u;
        bfs.push(nb.v);
      }
    }
  }

  // Orient: lower (level, id) -> higher. For the spanning tree keep only the
  // BFS tree arc of each non-root vertex.
  const auto before = [&](VertexId a, VertexId b) {
    return level[a] < level[b] || (level[a] == level[b] && a < b);
  };
  for (const auto& e : q.edges()) {
    const VertexId lo = before(e.u, e.v) ? e.u : e.v;
    const VertexId hi = lo == e.u ? e.v : e.u;
    if (spanning_tree_only && bfs_parent[hi] != lo) continue;
    const auto parent_slot = static_cast<std::uint32_t>(dag.parents[hi].size());
    const auto child_slot = static_cast<std::uint32_t>(dag.children[lo].size());
    dag.children[lo].push_back({hi, e.elabel, parent_slot});
    dag.parents[hi].push_back({lo, e.elabel, child_slot});
  }

  dag.topo = order;
  std::stable_sort(dag.topo.begin(), dag.topo.end(),
                   [&](VertexId a, VertexId b) { return before(a, b); });
  return dag;
}

namespace {
// flag_fingerprint kinds for the two flag families of this index.
constexpr std::uint32_t kKindAnc = 0;
constexpr std::uint32_t kKindDesc = 1;
}  // namespace

bool DagCandidateIndex::set_anc(VertexId u, VertexId v, bool on) noexcept {
  if ((anc_[u][v] != 0) == on) return false;
  anc_[u][v] = on ? 1 : 0;
  checksum_ ^= util::flag_fingerprint(kKindAnc, u, v);
  return true;
}

bool DagCandidateIndex::set_desc(VertexId u, VertexId v, bool on) noexcept {
  if ((desc_[u][v] != 0) == on) return false;
  desc_[u][v] = on ? 1 : 0;
  checksum_ ^= util::flag_fingerprint(kKindDesc, u, v);
  return true;
}

std::uint64_t DagCandidateIndex::checksum_recompute() const noexcept {
  std::uint64_t sum = 0;
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    for (VertexId v = 0; v < cap_; ++v) {
      if (anc_[u][v]) sum ^= util::flag_fingerprint(kKindAnc, u, v);
      if (desc_[u][v]) sum ^= util::flag_fingerprint(kKindDesc, u, v);
    }
  }
  return sum;
}

bool DagCandidateIndex::stat(VertexId u, VertexId v) const noexcept {
  // Label-only, like the original DCG/DCS states: degree is enforced at
  // enumeration time instead. Keeping degree out of the index is what makes
  // the classifier's label stage sound — a label-mismatched edge then
  // provably cannot flip any index state (see DESIGN.md §4).
  return g_->has_vertex(v) && g_->label(v) == q_->label(u);
}

bool DagCandidateIndex::eval_anc(VertexId u, VertexId v) const noexcept {
  if (!stat(u, v)) return false;
  const std::size_t p = dag_.parents[u].size();
  const std::uint32_t* cnt = cnt_anc_[u].data() + static_cast<std::size_t>(v) * p;
  for (std::size_t i = 0; i < p; ++i)
    if (cnt[i] == 0) return false;
  return true;
}

bool DagCandidateIndex::eval_desc(VertexId u, VertexId v) const noexcept {
  if (!stat(u, v)) return false;
  const std::size_t c = dag_.children[u].size();
  const std::uint32_t* cnt = cnt_desc_[u].data() + static_cast<std::size_t>(v) * c;
  for (std::size_t i = 0; i < c; ++i)
    if (cnt[i] == 0) return false;
  return true;
}

bool DagCandidateIndex::would_anc(VertexId x, VertexId at, VertexId other,
                                  Label elabel, std::int32_t sign) const noexcept {
  // anc(x, at) as it will evaluate once edge (other, at) is applied with the
  // given sign. One edge can bump SEVERAL parent slots of the same entry
  // (any label-compatible parent p with anc(p, other)), so the whole counter
  // vector is evaluated at once.
  if (!stat(x, at)) return false;
  const auto& parents = dag_.parents[x];
  const std::uint32_t* cnt =
      cnt_anc_[x].data() + static_cast<std::size_t>(at) * parents.size();
  for (std::size_t i = 0; i < parents.size(); ++i) {
    std::int64_t value = cnt[i];
    if ((!use_elabels_ || parents[i].elabel == elabel) && anc_[parents[i].other][other])
      value += sign;
    if (value <= 0) return false;
  }
  return true;
}

bool DagCandidateIndex::would_desc(VertexId x, VertexId at, VertexId other,
                                   Label elabel, std::int32_t sign) const noexcept {
  if (!stat(x, at)) return false;
  const auto& kids = dag_.children[x];
  const std::uint32_t* cnt =
      cnt_desc_[x].data() + static_cast<std::size_t>(at) * kids.size();
  for (std::size_t i = 0; i < kids.size(); ++i) {
    std::int64_t value = cnt[i];
    if ((!use_elabels_ || kids[i].elabel == elabel) && desc_[kids[i].other][other])
      value += sign;
    if (value <= 0) return false;
  }
  return true;
}

bool DagCandidateIndex::safe_edge(VertexId v1, VertexId v2, Label elabel,
                                  std::int32_t sign) const {
  // Endpoint flags must not flip. Direct counter deltas only touch entries
  // at v1/v2; without endpoint flips nothing propagates, so checking the
  // would-be endpoint evaluations covers the whole index.
  for (VertexId x = 0; x < q_->num_vertices(); ++x) {
    for (const auto& [at, other] : {std::pair{v1, v2}, std::pair{v2, v1}}) {
      if (would_anc(x, at, other, elabel, sign) != (anc_[x][at] != 0)) return false;
      if (would_desc(x, at, other, elabel, sign) != (desc_[x][at] != 0)) return false;
    }
  }
  // No match may pass through the edge: every label-compatible QUERY edge
  // (not just DAG arcs — the spanning-tree orientation omits non-tree edges)
  // must miss a feasible endpoint. Feasibility = index candidacy (flags are
  // flip-free, so pre- and post-update candidacy coincide) refined by the
  // degree and NLF filters the enumeration applies anyway — necessary
  // conditions for any match, evaluated at post-update degrees.
  const bool insert = sign > 0;
  for (const auto& e : q_->edges()) {
    if (use_elabels_ && e.elabel != elabel) continue;
    const auto feasible = [&](VertexId qu, VertexId dv, VertexId other) {
      return candidate(qu, dv) && match_endpoint_ok(*q_, *g_, qu, dv, other, insert);
    };
    if (feasible(e.u, v1, v2) && feasible(e.v, v2, v1)) return false;
    if (feasible(e.u, v2, v1) && feasible(e.v, v1, v2)) return false;
  }
  return true;
}

void DagCandidateIndex::place_columns(VertexId u) noexcept {
  util::advise_hugepages(anc_[u].data(), anc_[u].size());
  util::advise_hugepages(desc_[u].data(), desc_[u].size());
  util::advise_hugepages(cnt_anc_[u].data(), cnt_anc_[u].size() * sizeof(std::uint32_t));
  util::advise_hugepages(cnt_desc_[u].data(),
                         cnt_desc_[u].size() * sizeof(std::uint32_t));
}

void DagCandidateIndex::build(const QueryGraph& q, const DataGraph& g,
                              bool spanning_tree_only, bool use_edge_labels) {
  q_ = &q;
  g_ = &g;
  use_elabels_ = use_edge_labels;
  dag_ = QueryDag::build(q, spanning_tree_only);
  cap_ = g.vertex_capacity();
  const std::uint32_t n = q.num_vertices();

  anc_.assign(n, {});
  desc_.assign(n, {});
  cnt_anc_.assign(n, {});
  cnt_desc_.assign(n, {});
  for (VertexId u = 0; u < n; ++u) {
    anc_[u].assign(cap_, 0);
    desc_[u].assign(cap_, 0);
    cnt_anc_[u].assign(static_cast<std::size_t>(cap_) * dag_.parents[u].size(), 0);
    cnt_desc_[u].assign(static_cast<std::size_t>(cap_) * dag_.children[u].size(), 0);
    place_columns(u);
  }

  // anc: ascending topological order. Once u's column is final, push its
  // support into the children's counters.
  for (const VertexId u : dag_.topo) {
    for (VertexId v = 0; v < cap_; ++v) anc_[u][v] = eval_anc(u, v) ? 1 : 0;
    for (const auto& arc : dag_.children[u]) {
      const VertexId c = arc.other;
      const std::size_t p = dag_.parents[c].size();
      for (VertexId v = 0; v < cap_; ++v) {
        if (!anc_[u][v]) continue;
        // Counters are only ever read for entries passing stat(c, ·), i.e.
        // data vertices labeled q.label(c) — count only that label segment.
        // Maintenance (direct_deltas/drain) applies the same restriction.
        for (const auto& nb : g.neighbors_with_label(v, q.label(c))) {
          if (use_elabels_ && nb.elabel != arc.elabel) continue;
          ++cnt_anc_[c][static_cast<std::size_t>(nb.v) * p + arc.slot];
        }
      }
    }
  }
  // desc: descending topological order, pushing into parents' counters.
  for (auto it = dag_.topo.rbegin(); it != dag_.topo.rend(); ++it) {
    const VertexId u = *it;
    for (VertexId v = 0; v < cap_; ++v) desc_[u][v] = eval_desc(u, v) ? 1 : 0;
    for (const auto& arc : dag_.parents[u]) {
      const VertexId p = arc.other;
      const std::size_t c = dag_.children[p].size();
      for (VertexId v = 0; v < cap_; ++v) {
        if (!desc_[u][v]) continue;
        for (const auto& nb : g.neighbors_with_label(v, q.label(p))) {
          if (use_elabels_ && nb.elabel != arc.elabel) continue;
          ++cnt_desc_[p][static_cast<std::size_t>(nb.v) * c + arc.slot];
        }
      }
    }
  }
  checksum_ = checksum_recompute();
}

void DagCandidateIndex::on_vertex_added(VertexId id) {
  if (id >= cap_) {
    cap_ = id + 1;
    for (VertexId u = 0; u < q_->num_vertices(); ++u) {
      anc_[u].resize(cap_, 0);
      desc_[u].resize(cap_, 0);
      cnt_anc_[u].resize(static_cast<std::size_t>(cap_) * dag_.parents[u].size(), 0);
      cnt_desc_[u].resize(static_cast<std::size_t>(cap_) * dag_.children[u].size(), 0);
      place_columns(u);
    }
  }
  // A fresh vertex is isolated, so flag initialization cannot propagate.
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    set_anc(u, id, eval_anc(u, id));
    set_desc(u, id, eval_desc(u, id));
  }
}

void DagCandidateIndex::on_vertex_removed(VertexId id) {
  // The engine removes incident edges first, so counters referencing `id`
  // are already zero; only the vertex's own flags need clearing.
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    set_anc(u, id, false);
    set_desc(u, id, false);
  }
}

void DagCandidateIndex::direct_deltas(VertexId a, VertexId b, Label elabel,
                                      std::int32_t sign) {
  // Contribution of data edge (a,b): for each query arc (u -> c) compatible
  // with the edge label, a supports b upward (anc) and b supports a downward
  // (desc), weighted by the *current* flag values. Counters are maintained
  // only for label-matching owners, mirroring the segment-restricted build.
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    const auto& kids = dag_.children[u];
    const bool a_owns_u = g_->label(a) == q_->label(u);
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      const auto& arc = kids[ci];
      if (use_elabels_ && arc.elabel != elabel) continue;
      const VertexId c = arc.other;
      if (anc_[u][a] && g_->label(b) == q_->label(c)) {
        auto& cnt =
            cnt_anc_[c][static_cast<std::size_t>(b) * dag_.parents[c].size() + arc.slot];
        cnt = static_cast<std::uint32_t>(static_cast<std::int64_t>(cnt) + sign);
      }
      if (desc_[c][b] && a_owns_u) {
        auto& cnt =
            cnt_desc_[u][static_cast<std::size_t>(a) * kids.size() + ci];
        cnt = static_cast<std::uint32_t>(static_cast<std::int64_t>(cnt) + sign);
      }
    }
  }
}

void DagCandidateIndex::reeval_pairs_of(VertexId v, std::vector<Flip>& queue) {
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    const bool na = eval_anc(u, v);
    if (set_anc(u, v, na)) queue.push_back({Kind::kAnc, u, v, na});
    const bool nd = eval_desc(u, v);
    if (set_desc(u, v, nd)) queue.push_back({Kind::kDesc, u, v, nd});
  }
}

void DagCandidateIndex::drain(std::vector<Flip>& queue) {
  while (!queue.empty()) {
    const Flip f = queue.back();
    queue.pop_back();
    if (f.kind == Kind::kAnc) {
      // anc(u,v) flipped: adjust the anc counters of every DAG child across
      // every compatible data edge incident to v.
      for (const auto& arc : dag_.children[f.u]) {
        const VertexId c = arc.other;
        const std::size_t p = dag_.parents[c].size();
        for (const auto& nb : g_->neighbors_with_label(f.v, q_->label(c))) {
          if (use_elabels_ && nb.elabel != arc.elabel) continue;
          auto& cnt = cnt_anc_[c][static_cast<std::size_t>(nb.v) * p + arc.slot];
          cnt += f.on ? 1u : ~0u;  // unsigned -1
          const bool nv = eval_anc(c, nb.v);
          if (set_anc(c, nb.v, nv)) queue.push_back({Kind::kAnc, c, nb.v, nv});
        }
      }
    } else {
      for (const auto& arc : dag_.parents[f.u]) {
        const VertexId p = arc.other;
        const std::size_t c = dag_.children[p].size();
        for (const auto& nb : g_->neighbors_with_label(f.v, q_->label(p))) {
          if (use_elabels_ && nb.elabel != arc.elabel) continue;
          auto& cnt = cnt_desc_[p][static_cast<std::size_t>(nb.v) * c + arc.slot];
          cnt += f.on ? 1u : ~0u;
          const bool nv = eval_desc(p, nb.v);
          if (set_desc(p, nb.v, nv)) queue.push_back({Kind::kDesc, p, nb.v, nv});
        }
      }
    }
  }
}

void DagCandidateIndex::on_edge_inserted(VertexId v1, VertexId v2, Label elabel) {
  on_vertex_added(std::max(v1, v2));
  direct_deltas(v1, v2, elabel, +1);
  direct_deltas(v2, v1, elabel, +1);
  std::vector<Flip> queue;
  reeval_pairs_of(v1, queue);
  reeval_pairs_of(v2, queue);
  drain(queue);
}

void DagCandidateIndex::on_edge_removed(VertexId v1, VertexId v2, Label elabel) {
  direct_deltas(v1, v2, elabel, -1);
  direct_deltas(v2, v1, elabel, -1);
  std::vector<Flip> queue;
  reeval_pairs_of(v1, queue);
  reeval_pairs_of(v2, queue);
  drain(queue);
}

bool DagCandidateIndex::safe_insert(VertexId v1, VertexId v2, Label elabel) const {
  return safe_edge(v1, v2, elabel, +1);
}

bool DagCandidateIndex::safe_remove(VertexId v1, VertexId v2, Label elabel) const {
  return safe_edge(v1, v2, elabel, -1);
}

std::uint64_t DagCandidateIndex::num_candidate_pairs() const noexcept {
  std::uint64_t total = 0;
  for (VertexId u = 0; u < q_->num_vertices(); ++u)
    for (VertexId v = 0; v < cap_; ++v) total += candidate(u, v) ? 1 : 0;
  return total;
}

bool DagCandidateIndex::states_equal(const DagCandidateIndex& other) const noexcept {
  // Two indexes over the same flag set may have different capacities.
  if (q_->num_vertices() != other.q_->num_vertices()) return false;
  const std::uint32_t cap = std::min(cap_, other.cap_);
  for (VertexId u = 0; u < q_->num_vertices(); ++u) {
    if (!std::equal(anc_[u].begin(), anc_[u].begin() + cap, other.anc_[u].begin()))
      return false;
    if (!std::equal(desc_[u].begin(), desc_[u].begin() + cap, other.desc_[u].begin()))
      return false;
    // Any flag beyond the shorter capacity must be off on the longer side.
    const auto& big_anc = cap_ > other.cap_ ? anc_[u] : other.anc_[u];
    const auto& big_desc = cap_ > other.cap_ ? desc_[u] : other.desc_[u];
    const std::uint32_t big_cap = std::max(cap_, other.cap_);
    for (std::uint32_t v = cap; v < big_cap; ++v)
      if (big_anc[v] || big_desc[v]) return false;
  }
  return true;
}

}  // namespace paracosm::csm
