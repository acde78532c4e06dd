#include "verify/shrinker.hpp"

#include <algorithm>
#include <utility>

namespace paracosm::verify {

using graph::Edge;
using graph::Label;
using graph::VertexId;

namespace {

/// Rebuild a graph with the same dense vertex ids but a filtered edge set
/// (optionally with all labels collapsed to 0).
graph::DataGraph rebuild_graph(const graph::DataGraph& g,
                               const std::vector<Edge>& edges,
                               bool collapse_labels) {
  graph::DataGraph out;
  for (VertexId id = 0; id < g.vertex_capacity(); ++id) {
    // Fuzz-case initial graphs have dense alive ids; preserve them verbatim.
    out.add_vertex_with_id(id, collapse_labels ? 0 : g.label(id));
  }
  for (const Edge& e : edges) out.add_edge(e.u, e.v, collapse_labels ? 0 : e.elabel);
  return out;
}

graph::QueryGraph collapse_query_labels(const graph::QueryGraph& q) {
  std::vector<Label> labels(q.num_vertices(), 0);
  std::vector<Edge> edges;
  for (const Edge& e : q.edges()) edges.push_back({e.u, e.v, 0});
  return graph::QueryGraph(std::move(labels), std::move(edges));
}

std::vector<graph::GraphUpdate> collapse_stream_labels(
    const std::vector<graph::GraphUpdate>& stream) {
  std::vector<graph::GraphUpdate> out = stream;
  for (graph::GraphUpdate& upd : out) upd.label = 0;
  return out;
}

/// Remove query vertex `victim`, reindexing the rest; nullopt if the result
/// is no longer a usable pattern (too small or disconnected).
std::optional<graph::QueryGraph> drop_query_vertex(const graph::QueryGraph& q,
                                                   VertexId victim) {
  if (q.num_vertices() <= 2) return std::nullopt;
  std::vector<Label> labels;
  std::vector<VertexId> remap(q.num_vertices(), graph::kInvalidVertex);
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    if (u == victim) continue;
    remap[u] = static_cast<VertexId>(labels.size());
    labels.push_back(q.label(u));
  }
  std::vector<Edge> edges;
  for (const Edge& e : q.edges()) {
    if (e.u == victim || e.v == victim) continue;
    edges.push_back({remap[e.u], remap[e.v], e.elabel});
  }
  if (edges.empty()) return std::nullopt;
  graph::QueryGraph out(std::move(labels), std::move(edges));
  if (!out.connected()) return std::nullopt;
  return out;
}

class Shrinker {
 public:
  Shrinker(const FuzzCase& c, const Divergence& d, const ShrinkOptions& opts)
      : opts_(opts), best_(c), div_(d) {
    cell_.algorithms = {};
    cell_names_.push_back(d.algorithm);
    for (const std::string& n : cell_names_) cell_.algorithms.push_back(n);
    cell_.lanes = {d.lane_config()};
    cell_.factory = opts.factory;
    cell_.check_mappings = opts.check_mappings;
    cell_.stop_at_first = true;
  }

  ShrinkResult run() {
    // The divergence names one query; drop the rest up front (cheap, and it
    // makes every later predicate run single-query).
    if (best_.queries.size() > 1) {
      FuzzCase cand = best_;
      cand.queries = {best_.queries[div_.query_index]};
      accept_if_diverges(std::move(cand));
    }
    if (div_.update_index) truncate_at_divergence();

    for (std::uint32_t round = 0; round < opts_.max_rounds && !exhausted();
         ++round) {
      bool progress = false;
      progress |= ddmin_stream();
      progress |= drop_query_vertices();
      progress |= ddmin_graph_edges();
      progress |= collapse_labels();
      if (!progress) break;
    }
    return {std::move(best_), std::move(div_), runs_};
  }

 private:
  [[nodiscard]] bool exhausted() const noexcept { return runs_ >= opts_.max_runs; }

  /// Predicate: does the failing cell still diverge on `cand`? Accepts the
  /// candidate (and refreshes the divergence) when it does.
  bool accept_if_diverges(FuzzCase cand) {
    if (exhausted()) return false;
    ++runs_;
    std::vector<Divergence> divs = check_case(cand, cell_);
    if (divs.empty()) return false;
    best_ = std::move(cand);
    div_ = std::move(divs.front());
    return true;
  }

  void truncate_at_divergence() {
    // Everything after the diverging update is noise by construction.
    const std::size_t keep = static_cast<std::size_t>(*div_.update_index) + 1;
    if (keep >= best_.stream.size()) return;
    FuzzCase cand = best_;
    cand.stream.resize(keep);
    accept_if_diverges(std::move(cand));
  }

  bool ddmin_stream() {
    bool progress = false;
    std::size_t chunk = std::max<std::size_t>(1, best_.stream.size() / 2);
    while (chunk >= 1 && !exhausted()) {
      bool removed_any = false;
      for (std::size_t start = 0; start < best_.stream.size() && !exhausted();) {
        FuzzCase cand = best_;
        const std::size_t end = std::min(start + chunk, cand.stream.size());
        cand.stream.erase(cand.stream.begin() + static_cast<std::ptrdiff_t>(start),
                          cand.stream.begin() + static_cast<std::ptrdiff_t>(end));
        if (accept_if_diverges(std::move(cand))) {
          removed_any = progress = true;  // retry same offset on the shorter stream
        } else {
          start += chunk;
        }
      }
      if (chunk == 1 && !removed_any) break;
      if (!removed_any) chunk /= 2;
    }
    return progress;
  }

  bool drop_query_vertices() {
    bool progress = false;
    bool removed = true;
    while (removed && !exhausted()) {
      removed = false;
      const graph::QueryGraph& q = best_.queries.front();
      for (VertexId u = 0; u < q.num_vertices() && !exhausted(); ++u) {
        auto smaller = drop_query_vertex(best_.queries.front(), u);
        if (!smaller) continue;
        FuzzCase cand = best_;
        cand.queries.front() = std::move(*smaller);
        if (accept_if_diverges(std::move(cand))) {
          removed = progress = true;
          break;  // vertex ids shifted; restart the scan
        }
      }
    }
    return progress;
  }

  bool ddmin_graph_edges() {
    bool progress = false;
    std::vector<Edge> edges = best_.graph.edge_list();
    std::size_t chunk = std::max<std::size_t>(1, edges.size() / 2);
    while (chunk >= 1 && !exhausted() && !edges.empty()) {
      bool removed_any = false;
      for (std::size_t start = 0; start < edges.size() && !exhausted();) {
        std::vector<Edge> kept;
        kept.reserve(edges.size());
        const std::size_t end = std::min(start + chunk, edges.size());
        for (std::size_t i = 0; i < edges.size(); ++i)
          if (i < start || i >= end) kept.push_back(edges[i]);
        FuzzCase cand = best_;
        cand.graph = rebuild_graph(best_.graph, kept, false);
        if (accept_if_diverges(std::move(cand))) {
          edges = std::move(kept);
          removed_any = progress = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1 && !removed_any) break;
      if (!removed_any) chunk /= 2;
    }
    return progress;
  }

  bool collapse_labels() {
    if (exhausted()) return false;
    FuzzCase cand = best_;
    cand.graph = rebuild_graph(best_.graph, best_.graph.edge_list(), true);
    cand.queries.front() = collapse_query_labels(best_.queries.front());
    cand.stream = collapse_stream_labels(best_.stream);
    return accept_if_diverges(std::move(cand));
  }

  ShrinkOptions opts_;
  FuzzCase best_;
  Divergence div_;
  CheckOptions cell_;
  std::vector<std::string> cell_names_;  // backs cell_.algorithms string_views
  std::uint32_t runs_ = 0;
};

}  // namespace

ShrinkResult shrink(const FuzzCase& c, const Divergence& d,
                    const ShrinkOptions& opts) {
  return Shrinker(c, d, opts).run();
}

}  // namespace paracosm::verify
