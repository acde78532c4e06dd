#include "verify/fuzzer.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"
#include "paracosm/paracosm.hpp"
#include "util/rng.hpp"

namespace paracosm::verify {

using graph::GraphUpdate;
using graph::Label;
using graph::VertexId;

namespace {

Label draw_vertex_label(util::Rng& rng, std::uint32_t num_labels, double skew) {
  // Head-heavy label distribution: label 0 absorbs `skew` of the mass.
  if (num_labels <= 1 || rng.chance(skew)) return 0;
  return static_cast<Label>(rng.range(1, num_labels - 1));
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, const FuzzKnobs& knobs) {
  util::Rng rng(seed);
  FuzzCase c;
  c.seed = seed;

  const auto n = static_cast<std::uint32_t>(
      rng.range(knobs.min_vertices, knobs.max_vertices));
  const auto vl = static_cast<std::uint32_t>(
      rng.range(1, std::max<std::uint32_t>(1, knobs.max_vertex_labels)));
  const auto el = static_cast<std::uint32_t>(
      rng.range(1, std::max<std::uint32_t>(1, knobs.max_edge_labels)));
  const double avg_degree =
      knobs.min_avg_degree +
      rng.uniform() * (knobs.max_avg_degree - knobs.min_avg_degree);

  for (std::uint32_t i = 0; i < n; ++i)
    c.graph.add_vertex(draw_vertex_label(rng, vl, knobs.label_skew));

  // A few hub anchors concentrate degree (and later, ADS flip traffic).
  std::vector<VertexId> hubs;
  const std::uint32_t num_hubs = std::max<std::uint32_t>(1, n / 8);
  for (std::uint32_t i = 0; i < num_hubs; ++i)
    hubs.push_back(static_cast<VertexId>(rng.bounded(n)));

  const auto pick_endpoint = [&](util::Rng& r) -> VertexId {
    if (r.chance(knobs.hub_bias)) return hubs[r.bounded(hubs.size())];
    return static_cast<VertexId>(r.bounded(c.graph.vertex_capacity()));
  };

  const auto target_edges =
      static_cast<std::uint64_t>(static_cast<double>(n) * avg_degree / 2.0);
  for (std::uint64_t i = 0; i < target_edges; ++i) {
    const VertexId u = pick_endpoint(rng);
    const VertexId v = pick_endpoint(rng);
    if (u == v) continue;
    c.graph.add_edge(u, v, static_cast<Label>(rng.bounded(el)));
  }
  if (c.graph.num_edges() == 0 && n >= 2) c.graph.add_edge(0, 1, 0);

  // Queries: paper-style random-walk extraction, half of them hub-anchored.
  for (std::uint32_t i = 0; i < knobs.num_queries; ++i) {
    const auto size = static_cast<std::uint32_t>(
        rng.range(knobs.min_query_size, knobs.max_query_size));
    graph::QueryExtractOptions qopts;
    qopts.degree_biased_seed = (i % 2) == 1;
    if (auto q = graph::extract_query(c.graph, size, rng, qopts))
      c.queries.push_back(std::move(*q));
  }
  if (c.queries.empty()) {
    // Degenerate graph: fall back to a single-edge pattern over an existing
    // edge so every case still exercises the full pipeline.
    const auto edges = c.graph.edge_list();
    const graph::Edge e = edges.front();
    c.queries.emplace_back(
        std::vector<Label>{c.graph.label(e.u), c.graph.label(e.v)},
        std::vector<graph::Edge>{{0, 1, e.elabel}});
  }

  // Update stream, generated against a private mirror so deletes target real
  // edges and churn re-inserts exactly what was removed.
  graph::DataGraph mirror = c.graph;
  std::deque<graph::Edge> reinsert_queue;
  VertexId fresh_id = mirror.vertex_capacity();

  const auto random_existing_edge = [&]() -> std::optional<graph::Edge> {
    const auto edges = mirror.edge_list();
    if (edges.empty()) return std::nullopt;
    return edges[rng.bounded(edges.size())];
  };

  while (c.stream.size() < knobs.stream_length) {
    GraphUpdate upd;
    const double r = rng.uniform();
    if (r < knobs.invalid_rate) {
      // Structurally invalid ops (ISSUE 4 satellite): edge ops naming a
      // vertex that was never allocated, self-loops, and removes of unknown
      // vertices. Every engine must reject them identically
      // (DataGraph::apply_checked names the reason); the mirror.apply()
      // below is a no-op for all of them, so the oracle agrees by
      // construction.
      const auto ghost =
          static_cast<VertexId>(fresh_id + 64 + rng.bounded(64));
      const auto live = static_cast<VertexId>(rng.bounded(fresh_id));
      switch (rng.bounded(4)) {
        case 0: upd = GraphUpdate::insert_edge(live, ghost, 0); break;
        case 1: upd = GraphUpdate::remove_edge(ghost, live); break;
        case 2: upd = GraphUpdate::insert_edge(live, live, 0); break;
        default: upd = GraphUpdate::remove_vertex(ghost); break;
      }
    } else if (r < knobs.invalid_rate + knobs.vertex_op_rate) {
      if (rng.chance(0.5) || mirror.num_vertices() <= 4) {
        upd = GraphUpdate::insert_vertex(fresh_id++,
                                         draw_vertex_label(rng, vl, knobs.label_skew));
      } else {
        // Remove a random alive vertex (cascades incident-edge expiry).
        VertexId victim = static_cast<VertexId>(rng.bounded(mirror.vertex_capacity()));
        for (std::uint32_t tries = 0; tries < 8 && !mirror.has_vertex(victim); ++tries)
          victim = static_cast<VertexId>(rng.bounded(mirror.vertex_capacity()));
        if (!mirror.has_vertex(victim)) continue;
        upd = GraphUpdate::remove_vertex(victim);
      }
    } else if (r < knobs.invalid_rate + knobs.vertex_op_rate +
                       knobs.duplicate_rate) {
      // No-op attempts: duplicate insert of a live edge, or a delete of an
      // edge that is not there. Every engine must treat both as silent skips.
      if (const auto e = random_existing_edge(); e && rng.chance(0.7)) {
        upd = GraphUpdate::insert_edge(e->u, e->v, e->elabel);
      } else {
        const VertexId u = static_cast<VertexId>(rng.bounded(fresh_id));
        const VertexId v = static_cast<VertexId>(rng.bounded(fresh_id));
        if (u == v) continue;
        upd = mirror.has_edge(u, v) ? GraphUpdate::insert_edge(u, v, 0)
                                    : GraphUpdate::remove_edge(u, v);
      }
    } else if (rng.chance(knobs.delete_rate)) {
      const auto e = random_existing_edge();
      if (!e) continue;
      upd = GraphUpdate::remove_edge(e->u, e->v);
      if (rng.chance(knobs.churn)) reinsert_queue.push_back(*e);
    } else if (!reinsert_queue.empty() && rng.chance(0.6)) {
      const graph::Edge e = reinsert_queue.front();
      reinsert_queue.pop_front();
      upd = GraphUpdate::insert_edge(e.u, e.v, e.elabel);
    } else {
      const VertexId u = pick_endpoint(rng);
      const VertexId v = static_cast<VertexId>(rng.bounded(fresh_id));
      if (u == v) continue;
      upd = GraphUpdate::insert_edge(u, v, static_cast<Label>(rng.bounded(el)));
    }
    mirror.apply(upd);
    c.stream.push_back(upd);
  }
  return c;
}

std::string_view lane_name(Lane lane) noexcept {
  switch (lane) {
    case Lane::kSequential: return "sequential";
    case Lane::kInner: return "inner";
    case Lane::kBatch: return "batch";
  }
  return "?";
}

std::vector<LaneConfig> default_lane_matrix(const std::vector<unsigned>& threads) {
  std::vector<LaneConfig> lanes{{Lane::kSequential, 1}};
  for (const unsigned t : threads) lanes.push_back({Lane::kInner, t});
  for (const unsigned t : threads) lanes.push_back({Lane::kBatch, t});
  // The stealing policy runs the central queue's worker loop with another
  // split rule; two thread counts cover it: the smallest with a thief and
  // the most oversubscribed.
  for (const unsigned t : threads)
    if (t == 2 || t == 8)
      lanes.push_back({.lane = Lane::kInner,
                       .threads = t,
                       .scheduler = engine::Scheduler::kWorkStealing});
  return lanes;
}

std::vector<LaneConfig> backend_lane_matrix(const std::vector<unsigned>& threads) {
  std::vector<LaneConfig> lanes = default_lane_matrix(threads);
  for (const engine::BatchBackendKind kind :
       {engine::BatchBackendKind::kWide, engine::BatchBackendKind::kAuto})
    for (const unsigned t : threads) lanes.push_back({Lane::kBatch, t, kind});
  return lanes;
}

std::string Divergence::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << " alg=" << algorithm << " lane=" << lane_name(lane)
     << " threads=" << threads;
  if (lane == Lane::kBatch && backend != engine::BatchBackendKind::kCpu)
    os << " backend=" << engine::batch_backend_name(backend);
  if (scheduler != engine::Scheduler::kCentralQueue)
    os << " scheduler=" << engine::scheduler_name(scheduler);
  os << " query=" << query_index;
  if (update_index) os << " update=" << *update_index;
  os << ": " << message;
  return os.str();
}

std::vector<std::string_view> fuzz_algorithms() {
  return {"graphflow", "turboflux", "symbi", "calig",
          "newsp",     "rapidflow", "iedyn", "incisomatch"};
}

namespace {

std::unique_ptr<csm::CsmAlgorithm> default_factory(std::string_view name) {
  return csm::make_algorithm(name);
}

/// Forwards everything to the wrapped algorithm except ads_safe, which leaks
/// a deterministic subset of unsafe updates as safe (see fuzzer.hpp).
class ClassifierFaultAlgorithm final : public csm::CsmAlgorithm {
 public:
  ClassifierFaultAlgorithm(std::unique_ptr<csm::CsmAlgorithm> inner,
                           std::uint32_t leak_mod)
      : inner_(std::move(inner)), leak_mod_(std::max(1u, leak_mod)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool uses_edge_labels() const noexcept override {
    return inner_->uses_edge_labels();
  }
  [[nodiscard]] bool has_ads() const noexcept override { return inner_->has_ads(); }
  [[nodiscard]] std::uint64_t ads_checksum() const noexcept override {
    return inner_->ads_checksum();
  }
  void attach(const graph::QueryGraph& q, const graph::DataGraph& g) override {
    inner_->attach(q, g);
  }
  void on_edge_inserted(const GraphUpdate& upd) override {
    inner_->on_edge_inserted(upd);
  }
  void on_edge_removed(const GraphUpdate& upd) override {
    inner_->on_edge_removed(upd);
  }
  void on_vertex_added(VertexId id) override { inner_->on_vertex_added(id); }
  void on_vertex_removed(VertexId id) override { inner_->on_vertex_removed(id); }

  [[nodiscard]] bool ads_safe(const GraphUpdate& upd) const override {
    if (inner_->ads_safe(upd)) return true;
    // The injected bug: a hash-selected slice of genuinely unsafe updates is
    // declared safe, so the batch executor skips their enumeration.
    std::uint64_t h = (static_cast<std::uint64_t>(upd.u) << 32) ^ upd.v ^
                      (static_cast<std::uint64_t>(upd.op) << 17);
    h = splitmix64_once(h);
    return h % leak_mod_ == 0;
  }

  void seeds(const GraphUpdate& upd, std::vector<csm::SearchTask>& out) const override {
    inner_->seeds(upd, out);
  }
  void expand(const csm::SearchTask& task, csm::MatchSink& sink,
              csm::SplitHook* hook) const override {
    inner_->expand(task, sink, hook);
  }

 private:
  [[nodiscard]] static std::uint64_t splitmix64_once(std::uint64_t x) noexcept {
    std::uint64_t state = x;
    return util::splitmix64(state);
  }

  std::unique_ptr<csm::CsmAlgorithm> inner_;
  std::uint32_t leak_mod_;
};

engine::Config lane_engine_config(const LaneConfig& lane) {
  engine::Config cfg;
  cfg.threads = lane.threads;
  cfg.split_depth = 3;
  cfg.inner_parallelism = lane.lane != Lane::kSequential;
  cfg.inter_parallelism = lane.lane == Lane::kBatch;
  // kStrict keeps the batch executor provably equivalent to sequential
  // processing — the only mode a divergence is a bug in (kPaper may
  // legitimately act on stale snapshot verdicts).
  cfg.batch_mode = engine::BatchMode::kStrict;
  // kCpu/kWide pin every batch to one backend so a divergence names the
  // backend that produced it; kAuto cells mix both per batch size.
  cfg.batch_backend = lane.backend;
  cfg.scheduler = lane.scheduler;
  // The verification matrix oversubscribes a single machine with up to 8
  // worker threads; park immediately instead of spinning for throughput.
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  return cfg;
}

}  // namespace

AlgorithmFactory make_classifier_fault_factory(std::uint32_t leak_mod) {
  return [leak_mod](std::string_view name) -> std::unique_ptr<csm::CsmAlgorithm> {
    std::unique_ptr<csm::CsmAlgorithm> inner = csm::make_algorithm(name);
    if (!inner) return nullptr;
    return std::make_unique<ClassifierFaultAlgorithm>(std::move(inner), leak_mod);
  };
}

OracleTrace oracle_trace_for(const FuzzCase& c, std::uint32_t query_index,
                             bool use_edge_labels, bool strict) {
  return build_trace(c.queries[query_index], c.graph, c.stream, use_edge_labels,
                     strict);
}

std::optional<Divergence> check_cell(const FuzzCase& c, std::string_view algorithm,
                                     std::uint32_t query_index,
                                     const LaneConfig& lane,
                                     const OracleTrace& trace,
                                     const AlgorithmFactory& factory,
                                     bool check_mappings) {
  const AlgorithmFactory& make =
      factory ? factory : AlgorithmFactory(default_factory);
  std::unique_ptr<csm::CsmAlgorithm> alg = make(algorithm);
  if (!alg) return std::nullopt;

  // The recompute baseline is counting-only: it reports |ΔM| without
  // enumerating individual mappings, so only counts are reconciled.
  const bool mappings = check_mappings && algorithm != "incisomatch";

  graph::DataGraph g = c.graph;
  std::unique_ptr<engine::ParaCosm> pc;
  try {
    pc = std::make_unique<engine::ParaCosm>(*alg, c.queries[query_index], g,
                                            lane_engine_config(lane));
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // iedyn × cyclic query: out of the algorithm's domain
  }

  Divergence div;
  div.seed = c.seed;
  div.algorithm = std::string(algorithm);
  div.lane = lane.lane;
  div.threads = lane.threads;
  div.backend = lane.backend;
  div.scheduler = lane.scheduler;
  div.query_index = query_index;

  DeltaReconciler rec;
  pc->set_match_callback(
      [&rec](std::span<const Assignment> m) { rec.observe(m); });

  if (lane.lane == Lane::kBatch) {
    const engine::StreamResult res = pc->process_stream(c.stream);
    if (auto err =
            rec.reconcile_stream(trace, res.positive, res.negative, mappings)) {
      div.message = *err;
      return div;
    }
  } else {
    for (std::uint32_t i = 0; i < c.stream.size(); ++i) {
      rec.clear();
      const csm::UpdateOutcome out = pc->process(c.stream[i]);
      if (auto err =
              rec.reconcile(trace.deltas[i], out.positive, out.negative, mappings)) {
        div.update_index = i;
        div.message = *err;
        return div;
      }
    }
  }

  if (!g.same_structure(trace.final_graph)) {
    div.message = "final graph structure diverges from the oracle mirror";
    return div;
  }
  return std::nullopt;
}

std::vector<Divergence> check_case(const FuzzCase& c, const CheckOptions& opts) {
  std::vector<Divergence> out;
  const AlgorithmFactory& make =
      opts.factory ? opts.factory : AlgorithmFactory(default_factory);

  for (std::uint32_t qi = 0; qi < c.queries.size(); ++qi) {
    // One oracle trace per edge-label mode, shared by every algorithm/lane.
    std::optional<OracleTrace> traces[2];
    for (const std::string_view name : opts.algorithms) {
      const std::unique_ptr<csm::CsmAlgorithm> probe = make(name);
      if (!probe) continue;
      const bool el = probe->uses_edge_labels();
      std::optional<OracleTrace>& trace = traces[el ? 1 : 0];
      if (!trace) trace = oracle_trace_for(c, qi, el, opts.check_mappings);
      for (const LaneConfig& lane : opts.lanes) {
        if (auto div = check_cell(c, name, qi, lane, *trace, make,
                                  opts.check_mappings)) {
          out.push_back(std::move(*div));
          if (opts.stop_at_first) return out;
        }
      }
    }
  }
  return out;
}

}  // namespace paracosm::verify
