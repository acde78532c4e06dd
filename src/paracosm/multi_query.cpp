#include "paracosm/multi_query.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/trace_ring.hpp"
#include "paracosm/shard_cursor.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

using graph::GraphUpdate;
using graph::Label;
using graph::UpdateOp;
using graph::VertexId;

namespace {

[[nodiscard]] bool deadline_expired(util::Clock::time_point deadline) {
  return deadline != util::Clock::time_point{} && util::Clock::now() >= deadline;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registration

MultiQueryEngine::MultiQueryEngine(graph::DataGraph& g, Config config)
    : g_(g),
      config_(config),
      runtime_(config) {}

std::size_t MultiQueryEngine::acquire_group(const graph::QueryGraph& q,
                                            const bool ignore_edge_labels) {
  const std::string key =
      (ignore_edge_labels ? "w|" : "e|") + canonical_query_key(q);
  if (const auto it = group_by_key_.find(key); it != group_by_key_.end()) {
    ++groups_[it->second].refs;
    return it->second;
  }
  std::size_t gid;
  if (!free_groups_.empty()) {
    gid = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gid = groups_.size();
    groups_.emplace_back();
  }
  ClassifyGroup& grp = groups_[gid];
  grp.key = key;
  grp.ignore_edge_labels = ignore_edge_labels;
  grp.deg_pairs.clear();
  // Both orientations, mirroring QueryGraph::matching_edges: the stored
  // (deg(u1), deg(u2)) pairs are exactly what classifier stage 2 compares.
  for (const graph::Edge& e : q.edges()) {
    const Label la = q.label(e.u), lb = q.label(e.v);
    const std::uint32_t da = q.degree(e.u), db = q.degree(e.v);
    if (ignore_edge_labels) {
      grp.deg_pairs[QueryIndex::pack_pair(la, lb)].emplace_back(da, db);
      grp.deg_pairs[QueryIndex::pack_pair(lb, la)].emplace_back(db, da);
    } else {
      grp.deg_pairs[QueryIndex::pack(la, lb, e.elabel)].emplace_back(da, db);
      grp.deg_pairs[QueryIndex::pack(lb, la, e.elabel)].emplace_back(db, da);
    }
  }
  grp.refs = 1;
  grp.active = true;
  group_by_key_[key] = gid;
  return gid;
}

void MultiQueryEngine::release_group(const std::size_t group_id) {
  ClassifyGroup& grp = groups_[group_id];
  if (--grp.refs > 0) return;
  group_by_key_.erase(grp.key);
  grp = ClassifyGroup{};
  free_groups_.push_back(group_id);
}

std::size_t MultiQueryEngine::open_class(const graph::QueryGraph& q,
                                         csm::CsmAlgorithm& alg, std::string share_key,
                                         const std::int64_t budget_us) {
  alg.attach(q, g_);  // the offline stage; it may throw, so it runs first
  std::size_t class_id;
  if (!free_classes_.empty()) {
    class_id = free_classes_.back();
    free_classes_.pop_back();
  } else {
    class_id = classes_.size();
    classes_.emplace_back();
  }
  const bool ignore = !alg.uses_edge_labels();
  EvalClass& cls = classes_[class_id];
  cls.query = &q;
  cls.algorithm = &alg;
  cls.classifier = std::make_unique<UpdateClassifier>(q, g_, alg);
  cls.members.clear();
  cls.share_key = std::move(share_key);
  cls.budget_us = budget_us;
  cls.ignore_edge_labels = ignore;
  cls.has_ads = alg.has_ads();
  cls.active = true;
  cls.group_id = acquire_group(q, ignore);
  index_.add_class(class_id, q, ignore);
  anchors_.add_class(class_id, q, ignore);
  if (!cls.share_key.empty()) class_by_key_[cls.share_key] = class_id;
  ++active_classes_;
  return class_id;
}

std::size_t MultiQueryEngine::add_member(const std::size_t class_id) {
  std::size_t handle;
  if (!free_slots_.empty()) {
    handle = free_slots_.back();
    free_slots_.pop_back();
  } else {
    handle = slots_.size();
    slots_.emplace_back();
  }
  classes_[class_id].members.push_back(handle);
  slots_[handle] = Slot{true, class_id, {}};
  ++active_queries_;
  return handle;
}

std::size_t MultiQueryEngine::add_query(const std::string_view algorithm,
                                        graph::QueryGraph query, QueryOptions opts) {
  auto alg = csm::make_algorithm(algorithm);
  if (!alg)
    throw std::invalid_argument("MultiQueryEngine: unknown algorithm " +
                                std::string(algorithm));

  // Sharing key: queries equal under label-preserving isomorphism with the
  // same algorithm and budget collapse into one evaluation class (budgets
  // must match — a shared search is truncated identically for all members).
  std::string share_key;
  if (shared_eval_) {
    share_key = std::string(algorithm) + "|" + std::to_string(opts.budget_us) +
                "|" + canonical_query_key(query);
    if (const auto it = class_by_key_.find(share_key); it != class_by_key_.end())
      return add_member(it->second);
  }

  auto owned_query = std::make_unique<graph::QueryGraph>(std::move(query));
  const std::size_t class_id =
      open_class(*owned_query, *alg, std::move(share_key), opts.budget_us);
  classes_[class_id].owned_query = std::move(owned_query);
  classes_[class_id].owned_algorithm = std::move(alg);
  return add_member(class_id);
}

std::size_t MultiQueryEngine::add_query(csm::CsmAlgorithm& alg,
                                        const graph::QueryGraph& query) {
  return add_member(open_class(query, alg, {}, /*budget_us=*/0));
}

bool MultiQueryEngine::remove_query(const std::size_t handle) {
  if (handle >= slots_.size() || !slots_[handle].active) return false;
  const std::size_t class_id = slots_[handle].class_id;
  EvalClass& cls = classes_[class_id];
  std::erase(cls.members, handle);
  slots_[handle] = Slot{};
  free_slots_.push_back(handle);
  --active_queries_;
  if (cls.members.empty()) {
    index_.remove_class(class_id, *cls.query, cls.ignore_edge_labels);
    anchors_.remove_class(class_id, *cls.query, cls.ignore_edge_labels);
    release_group(cls.group_id);
    if (!cls.share_key.empty()) class_by_key_.erase(cls.share_key);
    cls = EvalClass{};
    free_classes_.push_back(class_id);
    --active_classes_;
  }
  return true;
}

void MultiQueryEngine::set_match_callback(const std::size_t handle,
                                          MatchCallback callback) {
  if (handle < slots_.size() && slots_[handle].active)
    slots_[handle].on_match = std::move(callback);
}

void MultiQueryEngine::ensure_scratch(const unsigned nthreads) {
  if (scratch_.size() < nthreads) scratch_.resize(nthreads);
  for (ClassifyScratch& s : scratch_) {
    if (s.group_epoch.size() < groups_.size()) {
      s.group_epoch.resize(groups_.size(), 0);
      s.group_feasible.resize(groups_.size(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared classification

bool MultiQueryEngine::group_degree_feasible(const ClassifyGroup& grp,
                                             const Label lu, const Label lv,
                                             const Label le, const std::uint32_t du,
                                             const std::uint32_t dv) {
  const std::uint64_t key = grp.ignore_edge_labels
                                ? QueryIndex::pack_pair(lu, lv)
                                : QueryIndex::pack(lu, lv, le);
  const auto it = grp.deg_pairs.find(key);
  if (it == grp.deg_pairs.end()) return false;
  for (const auto& [need_u, need_v] : it->second)
    if (du >= need_u && dv >= need_v) return true;
  return false;
}

UpdateClass MultiQueryEngine::classify_shared(const GraphUpdate& upd,
                                              ClassifyScratch& s,
                                              QueryBitmap* need) const {
#if defined(PARACOSM_TRACE_ENABLED)
  const bool traced = need == nullptr && obs::trace_level() >= obs::event_level(
                                             obs::EventKind::kMultiClassify);
  const std::int64_t t0 = traced ? obs::now_ns() : 0;
  std::size_t traced_candidates = 0;
#endif
  MultiQueryStats& mq = s.mq;
  ++mq.updates_classified;

  const auto finish = [&](const UpdateClass verdict) {
#if defined(PARACOSM_TRACE_ENABLED)
    if (traced)
      obs::trace_complete(obs::EventKind::kMultiClassify, t0, traced_candidates,
                          upd.u, upd.v);
#endif
    return verdict;
  };

  // Structural screens, evaluated once for all queries (each would make
  // every per-query classifier return kUnsafe).
  const std::optional<GraphUpdate> eff = effective_update(g_, upd);
  if (!eff) {
    if (need)
      for (std::size_t c = 0; c < classes_.size(); ++c)
        if (classes_[c].active) need->set(c);
    return finish(UpdateClass::kUnsafe);
  }
  if (active_queries_ == 0) return finish(UpdateClass::kSafeLabel);

  // Tier 1: one index probe. Classes outside the bitmap have no query edge
  // with this label triple — kSafeLabel for every member, no dispatch.
  const Label lu = g_.label(eff->u), lv = g_.label(eff->v);
  s.candidates.reset();
  ++mq.index_probes;
  index_.probe(lu, lv, eff->label, s.candidates);

  if (++s.epoch == 0) {  // group-memo epoch wrap
    std::fill(s.group_epoch.begin(), s.group_epoch.end(), 0);
    s.epoch = 1;
  }

  const bool insert = eff->op == UpdateOp::kInsertEdge;
  const std::uint32_t du = g_.degree(eff->u) + (insert ? 1 : 0);
  const std::uint32_t dv = g_.degree(eff->v) + (insert ? 1 : 0);

  UpdateClass verdict = UpdateClass::kSafeLabel;
  std::size_t settled_members = 0;
  std::size_t candidate_classes = 0;
  s.candidates.for_each_set([&](const std::size_t c) {
    const EvalClass& cls = classes_[c];
    if (!cls.active) return;
    ++candidate_classes;
    settled_members += cls.members.size();
    const auto degree_feasible = [&] {  // tier 2: memoized per group
      if (s.group_epoch[cls.group_id] == s.epoch) {
        ++mq.group_hits;
        return s.group_feasible[cls.group_id] != 0;
      }
      const bool feasible =
          group_degree_feasible(groups_[cls.group_id], lu, lv, eff->label, du, dv);
      s.group_epoch[cls.group_id] = s.epoch;
      s.group_feasible[cls.group_id] = feasible ? 1 : 0;
      ++mq.group_checks;
      return feasible;
    };
    // Verdict per class, mirroring UpdateClassifier::classify: for
    // index-free algorithms a failed degree filter is decisive (kSafeDegree),
    // otherwise stage 3 decides; for ADS-bearing ones stage 3 always decides
    // and the degree filter only attributes a safe verdict, so it runs only
    // while it can still change the update's stage.
    UpdateClass v;
    if (cls.has_ads) {
      ++mq.ads_checks;
      if (!cls.algorithm->ads_safe(*eff))
        v = UpdateClass::kUnsafe;
      else
        v = verdict >= UpdateClass::kSafeAds || degree_feasible()
                ? UpdateClass::kSafeAds
                : UpdateClass::kSafeDegree;
    } else if (!degree_feasible()) {
      v = UpdateClass::kSafeDegree;
    } else {
      ++mq.ads_checks;
      v = cls.algorithm->ads_safe(*eff) ? UpdateClass::kSafeAds : UpdateClass::kUnsafe;
    }
    if (v == UpdateClass::kUnsafe && need) need->set(c);
    verdict = std::max(verdict, v);
  });
  if (candidate_classes == 0) ++mq.index_empty;
  mq.verdicts_grouped += settled_members;
  mq.verdicts_by_index += active_queries_ - settled_members;
#if defined(PARACOSM_TRACE_ENABLED)
  traced_candidates = candidate_classes;
#endif
  return finish(verdict);
}

UpdateClass MultiQueryEngine::classify_independent(const GraphUpdate& upd) const {
  if (active_classes_ == 0)
    return effective_update(g_, upd) ? UpdateClass::kSafeLabel : UpdateClass::kUnsafe;
  UpdateClass verdict = UpdateClass::kSafeLabel;
  for (const EvalClass& cls : classes_) {
    if (!cls.active) continue;
    verdict = std::max(verdict, cls.classifier->classify(upd));
    if (verdict == UpdateClass::kUnsafe) break;
  }
  return verdict;
}

void MultiQueryEngine::classify_batch(const std::span<const GraphUpdate> batch,
                                      MultiStreamResult& result) {
#if defined(PARACOSM_TRACE_ENABLED)
  const std::int64_t trace_t0 = obs::trace_level() >= 1 ? obs::now_ns() : 0;
#endif
  const std::size_t count = batch.size();
  verdicts_.resize(count);
  const auto classify = [this](const GraphUpdate& upd, ClassifyScratch& s) {
    return shared_eval_ ? classify_shared(upd, s, nullptr) : classify_independent(upd);
  };
  ParallelStats& stats = result.stats;
  const unsigned nthreads = runtime_.pool.size();
  if (nthreads > 1 && count > 1) {
    runtime_.pool.run([&](unsigned wid) {
      util::ThreadCpuTimer timer;
      ClassifyScratch& s = scratch_[wid];
      for (std::size_t j = wid; j < count; j += nthreads)
        verdicts_[j] = classify(batch[j], s);
      stats.workers[wid].busy_ns += timer.elapsed_ns();
    });
    stats.dispatch_ns += runtime_.pool.last_dispatch_ns();
  } else {
    util::ThreadCpuTimer timer;
    for (std::size_t j = 0; j < count; ++j)
      verdicts_[j] = classify(batch[j], scratch_.front());
    stats.serial_ns += timer.elapsed_ns();
  }
  BatchBackendStats& counters = result.backend_cpu;
  ++counters.batches;
  counters.lanes += count;
  for (std::size_t j = 0; j < count; ++j) {
    switch (verdicts_[j]) {
      case UpdateClass::kSafeLabel: ++counters.safe_label; break;
      case UpdateClass::kSafeDegree: ++counters.safe_degree; break;
      case UpdateClass::kSafeAds: ++counters.safe_ads; break;
      case UpdateClass::kUnsafe: ++counters.unsafe_lanes; break;
    }
  }
#if defined(PARACOSM_TRACE_ENABLED)
  if (obs::trace_level() >= 1)
    obs::trace_complete(obs::EventKind::kBatchBackend, trace_t0, count);
#endif
}

// ---------------------------------------------------------------------------
// Application and search

void MultiQueryEngine::apply_safe(const GraphUpdate& upd) {
  if (upd.op == UpdateOp::kInsertEdge) {
    g_.add_edge(upd.u, upd.v, upd.label);
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_edge_inserted(upd);
  } else {
    const auto removed = g_.remove_edge(upd.u, upd.v);
    if (removed) {
      GraphUpdate applied = upd;
      applied.label = *removed;
      for (EvalClass& cls : classes_)
        if (cls.active) cls.algorithm->on_edge_removed(applied);
    }
  }
  PARACOSM_TRACE_INSTANT(obs::EventKind::kSafeApply, upd.u, upd.v);
}

const MultiQueryEngine::MatchCallback* MultiQueryEngine::class_callback(
    const EvalClass& cls, MatchCallback& fan) const {
  const MatchCallback* only = nullptr;
  std::size_t observers = 0;
  for (const std::size_t m : cls.members) {
    if (slots_[m].on_match) {
      only = &slots_[m].on_match;
      ++observers;
    }
  }
  if (observers <= 1) return only;
  fan = [this, &cls](const std::span<const csm::Assignment> mapping) {
    for (const std::size_t m : cls.members)
      if (slots_[m].on_match) slots_[m].on_match(mapping);
  };
  return &fan;
}

MultiQueryEngine::SearchOutcome MultiQueryEngine::search_class(
    EvalClass& cls, const GraphUpdate& eff, const util::Clock::time_point deadline,
    const util::CancelView cancel, ParallelStats& stats) {
  std::vector<csm::SearchTask> seeds;
  {
    util::ThreadCpuTimer serial;
    PARACOSM_TRACE_SPAN(seed_span, obs::EventKind::kSeedGen, eff.u, eff.v);
    cls.algorithm->seeds(eff, seeds);
    stats.serial_ns += serial.elapsed_ns();
  }
  if (seeds.empty()) return {};

  // Per-query budget isolation: the class searches under the tighter of the
  // global deadline and its own budget. A budget-cut search is *degraded*
  // (partial ΔM for this update, members flagged), not a stream timeout.
  util::Clock::time_point class_deadline = deadline;
  bool budgeted = false;
  if (cls.budget_us > 0) {
    const util::Clock::time_point d =
        util::Clock::now() + std::chrono::microseconds(cls.budget_us);
    if (deadline == util::Clock::time_point{} || d < deadline) {
      class_deadline = d;
      budgeted = true;
    }
  }

  MatchCallback fan;
  const MatchCallback* on_match = class_callback(cls, fan);
  SearchOutcome outcome;
  bool timed = false;
  if (config_.inner_parallelism) {
    InnerRunResult run = runtime_.inner.run(*cls.algorithm, std::move(seeds),
                                            class_deadline, on_match, cancel);
    stats.merge(run.stats);
    outcome.matches = run.matches;
    outcome.nodes = run.nodes;
    outcome.cancelled = run.cancelled;
    timed = run.timed_out;
  } else {
    util::ThreadCpuTimer timer;
    csm::MatchSink sink;
    sink.deadline = class_deadline;
    sink.cancel = cancel;
    if (on_match) sink.on_match = *on_match;
    for (const csm::SearchTask& task : seeds) {
      PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand, task.depth());
      cls.algorithm->expand(task, sink, nullptr);
      if (sink.stopped()) break;
    }
    stats.serial_ns += timer.elapsed_ns();
    outcome.matches = sink.matches;
    outcome.nodes = sink.nodes;
    outcome.cancelled = sink.cancelled();
    timed = sink.timed_out();
  }
  if (timed) {
    if (budgeted && !deadline_expired(deadline))
      outcome.degraded = true;
    else
      outcome.timed_out = true;
  }
  return outcome;
}

void MultiQueryEngine::run_searches(const GraphUpdate& eff, const bool positive,
                                    const util::Clock::time_point deadline,
                                    const util::CancelView cancel,
                                    MultiStreamResult& into, csm::UpdateOutcome& out) {
  // Tier 3 gate: a class none of whose shared seed anchors pass cannot gain
  // or lose a match through this edge — skip its search outright. For
  // insertions the endpoints' signatures already include the new edge (we
  // run after add_edge); for deletions the edge is still present.
  const bool use_anchors = shared_eval_;
  if (use_anchors) {
    anchor_scratch_.reset();
    anchors_.filter(g_.label(eff.u), g_.label(eff.v), eff.label,
                    g_.nlf_signature(eff.u), g_.nlf_signature(eff.v),
                    anchor_scratch_, into.mq.anchors_checked);
  }
  std::vector<std::uint64_t>& by_handle = positive ? into.positive : into.negative;
  std::uint64_t& total = positive ? out.positive : out.negative;
  need_scratch_.for_each_set([&](const std::size_t c) {
    EvalClass& cls = classes_[c];
    if (!cls.active) return;
    if (use_anchors && !anchor_scratch_.test(c)) {
      ++into.mq.searches_skipped;
      return;
    }
#if defined(PARACOSM_TRACE_ENABLED)
    const bool traced =
        obs::trace_level() >= obs::event_level(obs::EventKind::kMultiSearch);
    const std::int64_t t0 = traced ? obs::now_ns() : 0;
#endif
    const SearchOutcome outcome = search_class(cls, eff, deadline, cancel, into.stats);
#if defined(PARACOSM_TRACE_ENABLED)
    if (traced)
      obs::trace_complete(obs::EventKind::kMultiSearch, t0, c, cls.members.size(),
                          outcome.matches);
#endif
    ++into.mq.searches_run;
    into.mq.searches_shared += cls.members.size() - 1;
    for (const std::size_t m : cls.members) {
      by_handle[m] += outcome.matches;
      if (outcome.degraded) ++into.degraded[m];
    }
    total += outcome.matches * cls.members.size();
    out.nodes += outcome.nodes;
    out.timed_out = out.timed_out || outcome.timed_out;
    out.cancelled = out.cancelled || outcome.cancelled;
  });
}

// ---------------------------------------------------------------------------
// Sequential path

csm::UpdateOutcome MultiQueryEngine::process(const GraphUpdate& upd,
                                             MultiStreamResult& into,
                                             const util::Clock::time_point deadline,
                                             const util::CancelView cancel) {
  PARACOSM_TRACE_SPAN(update_span, obs::EventKind::kUpdate,
                      static_cast<std::uint64_t>(upd.op), upd.u, upd.v);
  if (into.positive.size() < slots_.size()) {
    into.positive.resize(slots_.size(), 0);
    into.negative.resize(slots_.size(), 0);
    into.degraded.resize(slots_.size(), 0);
  }
  ensure_scratch(1);
  csm::UpdateOutcome out;
  switch (upd.op) {
    case UpdateOp::kInsertEdge:
    case UpdateOp::kRemoveEdge:
      process_edge(upd, deadline, cancel, into, out);
      break;
    case UpdateOp::kInsertVertex: {
      const bool existed = g_.has_vertex(upd.u);
      g_.add_vertex_with_id(upd.u, upd.label);
      if (!existed)
        for (EvalClass& cls : classes_)
          if (cls.active) cls.algorithm->on_vertex_added(upd.u);
      out.applied = true;
      break;
    }
    case UpdateOp::kRemoveVertex: {
      if (!g_.has_vertex(upd.u)) break;
      std::vector<GraphUpdate> removals;
      for (const auto& nb : g_.neighbors(upd.u))
        removals.push_back(GraphUpdate::remove_edge(upd.u, nb.v, nb.elabel));
      for (const GraphUpdate& rm : removals) process_edge(rm, deadline, cancel, into, out);
      g_.remove_vertex(upd.u);
      for (EvalClass& cls : classes_)
        if (cls.active) cls.algorithm->on_vertex_removed(upd.u);
      out.applied = true;
      break;
    }
  }
  ClassifyScratch& s = scratch_.front();
  into.mq.merge(s.mq);
  s.mq = MultiQueryStats{};
  return out;
}

void MultiQueryEngine::process_edge(const GraphUpdate& upd,
                                    const util::Clock::time_point deadline,
                                    const util::CancelView cancel,
                                    MultiStreamResult& into, csm::UpdateOutcome& out) {
  const bool insert = upd.op == UpdateOp::kInsertEdge;

  // Resolve the actual edge label before seeding — deletion requests may
  // omit it (see csm/engine.cpp).
  GraphUpdate eff = upd;
  if (!insert) {
    const auto actual_label = g_.edge_label(upd.u, upd.v);
    if (!actual_label) return;
    eff.label = *actual_label;
  }

  // Which classes must search. Phase-1 verdicts are computed against the
  // pre-batch state and can be stale once the safe prefix is applied (a
  // prefix update may have changed an endpoint's degree or ADS state), so
  // the shared classification is re-run fresh here. In the independent-loop
  // baseline every class searches, as the original engine did.
  util::ThreadCpuTimer serial;
  need_scratch_.reset();
  if (shared_eval_) {
    classify_shared(upd, scratch_.front(), &need_scratch_);
  } else {
    for (std::size_t c = 0; c < classes_.size(); ++c)
      if (classes_[c].active) need_scratch_.set(c);
  }

  if (insert) {
    if (!g_.add_edge(upd.u, upd.v, upd.label)) return;
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_edge_inserted(upd);
    out.applied = true;
    into.stats.serial_ns += serial.elapsed_ns();
    if (need_scratch_.any()) run_searches(eff, /*positive=*/true, deadline, cancel, into, out);
  } else {
    into.stats.serial_ns += serial.elapsed_ns();
    if (need_scratch_.any()) run_searches(eff, /*positive=*/false, deadline, cancel, into, out);
    util::ThreadCpuTimer serial2;
    g_.remove_edge(upd.u, upd.v);
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_edge_removed(eff);
    out.applied = true;
    into.stats.serial_ns += serial2.elapsed_ns();
  }
}

// ---------------------------------------------------------------------------
// Stream loop

MultiStreamResult MultiQueryEngine::process_stream(
    const std::span<const GraphUpdate> stream, const util::Clock::time_point deadline,
    const util::CancelView cancel) {
  MultiStreamResult result;
  util::WallTimer wall;
  result.positive.assign(slots_.size(), 0);
  result.negative.assign(slots_.size(), 0);
  result.degraded.assign(slots_.size(), 0);
  result.stats.ensure_size(runtime_.pool.size());
  ensure_scratch(runtime_.pool.size());

  const auto sequential = [&](const GraphUpdate& upd) {
    const csm::UpdateOutcome out = process(upd, result, deadline, cancel);
    result.nodes += out.nodes;
    result.timed_out = result.timed_out || out.timed_out;
    result.cancelled = result.cancelled || out.cancelled;
    if (!out.applied) ++result.noop_skipped;
    ++result.updates_processed;
  };

  const unsigned k = std::max(1u, config_.effective_batch_size());
  const bool strict = config_.batch_mode == BatchMode::kStrict;
  std::size_t i = 0;
  while (i < stream.size()) {
    if (deadline_expired(deadline)) {
      result.timed_out = true;
      break;
    }
    if (!config_.inter_parallelism) {
      sequential(stream[i++]);
      continue;
    }
    const std::size_t count = std::min<std::size_t>(k, stream.size() - i);
    ++result.batches;
#if defined(PARACOSM_TRACE_ENABLED)
    // The batch span covers classify + safe-apply (phases 1–2b) and is
    // recorded *before* the sequential unsafe update of phase 2c runs, so a
    // trace never shows an unsafe kUpdate span inside a kBatch span — the
    // integration test asserts exactly that nesting.
    const std::int64_t trace_batch_t0 = obs::trace_level() >= 1 ? obs::now_ns() : 0;
#endif

    // Phase 1 — classification against the batch-start snapshot (read-only
    // on graph and ADS).
    classify_batch(stream.subspan(i, count), result);

    // Phase 2a — commit plan (cheap, sequential): the safe prefix up to the
    // first unsafe update (Figure 6) or, in strict mode, the first update
    // whose endpoints were already touched in this batch (DESIGN.md §4).
    if (strict) touched_.prepare(2 * count);
    std::size_t safe_prefix = 0;
    bool hit_unsafe = false;
    while (safe_prefix < count) {
      const GraphUpdate& upd = stream[i + safe_prefix];
      if (!is_safe(verdicts_[safe_prefix])) {
        hit_unsafe = true;
        break;
      }
      if (strict && upd.is_edge_op()) {
        if (touched_.contains(upd.u) || touched_.contains(upd.v)) {
          // Snapshot verdict may be stale: defer for re-classification.
          ++result.deferred_conflicts;
          break;
        }
        touched_.insert(upd.u);
        touched_.insert(upd.v);
      }
      ++safe_prefix;
    }
    for (std::size_t j = 0; j < safe_prefix + (hit_unsafe ? 1 : 0); ++j) {
      ++result.classifier.total;
      switch (verdicts_[j]) {
        case UpdateClass::kSafeLabel: ++result.classifier.safe_label; break;
        case UpdateClass::kSafeDegree: ++result.classifier.safe_degree; break;
        case UpdateClass::kSafeAds: ++result.classifier.safe_ads; break;
        case UpdateClass::kUnsafe: ++result.classifier.unsafe_updates; break;
      }
    }

    // Phase 2b — apply the safe prefix in parallel: safety guarantees
    // confine each application to its endpoints' adjacency and counter
    // caches, and the striped per-vertex locks serialize the rare stripe
    // collisions (in strict mode the endpoints are pairwise disjoint).
    if (safe_prefix > 0) {
#ifdef PARACOSM_VERIFY
      // Metamorphic invariant (verify/invariants.hpp): a safe-classified
      // update must not flip ADS state, so a whole batch of them must leave
      // every class's rolling checksum bit-identical. Reading them only at
      // the batch boundaries keeps the check outside the window where
      // workers mutate counter caches concurrently.
      const auto ads_checksums = [this] {
        std::vector<std::uint64_t> sums;
        for (const EvalClass& cls : classes_)
          if (cls.active) sums.push_back(cls.algorithm->ads_checksum());
        return sums;
      };
      const std::vector<std::uint64_t> verify_ads_before = ads_checksums();
#endif
      apply_safe_prefix(runtime_.pool, locks_, stream.subspan(i, safe_prefix),
                        result.stats, [this](const GraphUpdate& upd) { apply_safe(upd); });
#ifdef PARACOSM_VERIFY
      if (ads_checksums() != verify_ads_before)
        throw std::logic_error(
            "PARACOSM_VERIFY: a safe-classified batch mutated the ADS "
            "checksum — the classifier or an ads_safe rule is unsound");
#endif
      result.safe_applied += safe_prefix;
      result.updates_processed += safe_prefix;
    }
#if defined(PARACOSM_TRACE_ENABLED)
    if (obs::trace_level() >= 1)
      obs::trace_complete(obs::EventKind::kBatch, trace_batch_t0, result.batches - 1,
                          count, safe_prefix);
#endif
    i += safe_prefix;

    // Phase 2c — the unsafe update runs sequentially (ADS) with the
    // inner-update executor searching; the batch remainder is deferred.
    if (hit_unsafe) {
      ++result.unsafe_sequential;
      sequential(stream[i++]);
      result.deferred_after_unsafe += count - safe_prefix - 1;
    }
  }

  for (ClassifyScratch& s : scratch_) {
    result.mq.merge(s.mq);
    s.mq = MultiQueryStats{};
  }
  result.wall_ns = wall.elapsed_ns();
  return result;
}

}  // namespace paracosm::engine
