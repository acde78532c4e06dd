#include "paracosm/multi_query.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

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
// TouchedSet

void MultiQueryEngine::TouchedSet::prepare(const std::size_t expected_inserts) {
  // Cap the load factor at 1/2: with 4x slots the linear probe always
  // terminates and stays short.
  const std::size_t want =
      std::bit_ceil(std::max<std::size_t>(16, expected_inserts * 4));
  if (want > keys_.size()) {
    keys_.assign(want, 0);
    stamps_.assign(want, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrap: invalidate stale stamps from 2^32 batches ago
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
}

bool MultiQueryEngine::TouchedSet::contains(const VertexId v) const noexcept {
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = (v * 0x9E3779B9u) & mask;; i = (i + 1) & mask) {
    if (stamps_[i] != epoch_) return false;
    if (keys_[i] == v) return true;
  }
}

void MultiQueryEngine::TouchedSet::insert(const VertexId v) noexcept {
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = (v * 0x9E3779B9u) & mask;; i = (i + 1) & mask) {
    if (stamps_[i] != epoch_) {
      stamps_[i] = epoch_;
      keys_[i] = v;
      return;
    }
    if (keys_[i] == v) return;
  }
}

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

std::size_t MultiQueryEngine::add_query(const std::string_view algorithm,
                                        graph::QueryGraph query, QueryOptions opts) {
  auto alg = csm::make_algorithm(algorithm);
  if (!alg)
    throw std::invalid_argument("MultiQueryEngine: unknown algorithm " +
                                std::string(algorithm));

  std::size_t handle;
  if (!free_slots_.empty()) {
    handle = free_slots_.back();
    free_slots_.pop_back();
  } else {
    handle = slots_.size();
    slots_.emplace_back();
  }

  // Sharing key: queries equal under label-preserving isomorphism with the
  // same algorithm and budget collapse into one evaluation class (budgets
  // must match — a shared search is truncated identically for all members).
  std::size_t class_id = classes_.size();
  std::string share_key;
  if (shared_eval_) {
    share_key = std::string(algorithm) + "|" + std::to_string(opts.budget_us) +
                "|" + canonical_query_key(query);
    if (const auto it = class_by_key_.find(share_key); it != class_by_key_.end())
      class_id = it->second;
  }

  if (class_id == classes_.size()) {
    const bool ignore = !alg->uses_edge_labels();
    if (!free_classes_.empty()) {
      class_id = free_classes_.back();
      free_classes_.pop_back();
    } else {
      class_id = classes_.size();
      classes_.emplace_back();
    }
    EvalClass& cls = classes_[class_id];
    cls.query = std::make_unique<graph::QueryGraph>(std::move(query));
    cls.algorithm = std::move(alg);
    cls.algorithm->attach(*cls.query, g_);
    cls.classifier =
        std::make_unique<UpdateClassifier>(*cls.query, g_, *cls.algorithm);
    cls.members.clear();
    cls.share_key = share_key;
    cls.budget_us = opts.budget_us;
    cls.ignore_edge_labels = ignore;
    cls.has_ads = cls.algorithm->has_ads();
    cls.active = true;
    cls.group_id = acquire_group(*cls.query, ignore);
    index_.add_class(class_id, *cls.query, ignore);
    anchors_.add_class(class_id, *cls.query, ignore);
    if (!share_key.empty()) class_by_key_[share_key] = class_id;
    ++active_classes_;
  }

  classes_[class_id].members.push_back(handle);
  slots_[handle] = Slot{true, class_id};
  ++active_queries_;
  return handle;
}

bool MultiQueryEngine::remove_query(const std::size_t handle) {
  if (handle >= slots_.size() || !slots_[handle].active) return false;
  const std::size_t class_id = slots_[handle].class_id;
  EvalClass& cls = classes_[class_id];
  std::erase(cls.members, handle);
  slots_[handle].active = false;
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

bool MultiQueryEngine::classify_shared(const GraphUpdate& upd, ClassifyScratch& s,
                                       QueryBitmap* need) const {
#if defined(PARACOSM_TRACE_ENABLED)
  const bool traced =
      obs::trace_level() >= obs::event_level(obs::EventKind::kMultiClassify);
  const std::int64_t t0 = traced ? obs::now_ns() : 0;
  std::size_t traced_candidates = 0;
#endif
  MultiQueryStats& mq = s.mq;
  ++mq.updates_classified;

  // Structural screens, evaluated once for all queries (each would make
  // every per-query classifier return kUnsafe).
  const auto all_unsafe = [&] {
    if (need)
      for (std::size_t c = 0; c < classes_.size(); ++c)
        if (classes_[c].active) need->set(c);
    return false;
  };
  const auto finish = [&](const bool verdict) {
#if defined(PARACOSM_TRACE_ENABLED)
    if (traced)
      obs::trace_complete(obs::EventKind::kMultiClassify, t0, traced_candidates,
                          upd.u, upd.v);
#endif
    return verdict;
  };

  if (!upd.is_edge_op()) return finish(active_queries_ == 0 || all_unsafe());
  if (!g_.has_vertex(upd.u) || !g_.has_vertex(upd.v) || upd.u == upd.v)
    return finish(active_queries_ == 0 || all_unsafe());
  const bool insert = upd.op == UpdateOp::kInsertEdge;
  if (insert == g_.has_edge(upd.u, upd.v))
    return finish(active_queries_ == 0 || all_unsafe());
  if (active_queries_ == 0) return finish(true);

  // Deletion requests may omit the edge label; resolve once (the per-query
  // classifiers each re-derive this — see classifier.cpp).
  GraphUpdate eff = upd;
  if (!insert) {
    const auto actual_label = g_.edge_label(upd.u, upd.v);
    if (!actual_label) return finish(all_unsafe());
    eff.label = *actual_label;
  }

  // Tier 1: one index probe. Classes outside the bitmap have no query edge
  // with this label triple — kSafeLabel for every member, no dispatch.
  const Label lu = g_.label(eff.u), lv = g_.label(eff.v);
  s.candidates.reset();
  ++mq.index_probes;
  index_.probe(lu, lv, eff.label, s.candidates);

  if (++s.epoch == 0) {  // group-memo epoch wrap
    std::fill(s.group_epoch.begin(), s.group_epoch.end(), 0);
    s.epoch = 1;
  }

  const std::uint32_t du = g_.degree(eff.u) + (insert ? 1 : 0);
  const std::uint32_t dv = g_.degree(eff.v) + (insert ? 1 : 0);

  bool safe_all = true;
  std::size_t settled_members = 0;
  std::size_t candidate_classes = 0;
  s.candidates.for_each_set([&](const std::size_t c) {
    const EvalClass& cls = classes_[c];
    if (!cls.active) return;
    ++candidate_classes;
    settled_members += cls.members.size();
    // Verdict per class, mirroring UpdateClassifier::classify_impl for a
    // non-empty stage 1: for index-free algorithms a failed degree filter is
    // decisive (kSafeDegree); otherwise stage 3 decides.
    bool safe;
    if (cls.has_ads) {
      ++mq.ads_checks;
      safe = cls.algorithm->ads_safe(eff);
    } else {
      bool feasible;
      if (s.group_epoch[cls.group_id] == s.epoch) {  // tier 2: memoized
        feasible = s.group_feasible[cls.group_id] != 0;
        ++mq.group_hits;
      } else {
        feasible =
            group_degree_feasible(groups_[cls.group_id], lu, lv, eff.label, du, dv);
        s.group_epoch[cls.group_id] = s.epoch;
        s.group_feasible[cls.group_id] = feasible ? 1 : 0;
        ++mq.group_checks;
      }
      if (!feasible) {
        safe = true;  // kSafeDegree
      } else {
        ++mq.ads_checks;
        safe = cls.algorithm->ads_safe(eff);
      }
    }
    if (!safe) {
      safe_all = false;
      if (need) need->set(c);
    }
  });
  if (candidate_classes == 0) ++mq.index_empty;
  mq.verdicts_grouped += settled_members;
  mq.verdicts_by_index += active_queries_ - settled_members;
#if defined(PARACOSM_TRACE_ENABLED)
  traced_candidates = candidate_classes;
#endif
  return finish(safe_all);
}

bool MultiQueryEngine::safe_for_all_legacy(const GraphUpdate& upd) const {
  for (const EvalClass& cls : classes_)
    if (cls.active && !is_safe(cls.classifier->classify(upd))) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Application

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
}

MultiQueryEngine::SearchOutcome MultiQueryEngine::search_class(
    EvalClass& cls, const GraphUpdate& eff, const util::Clock::time_point deadline,
    MultiStreamResult& result) {
  std::vector<csm::SearchTask> seeds;
  cls.algorithm->seeds(eff, seeds);
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

  std::uint64_t matches;
  bool timed;
  if (config_.inner_parallelism) {
    InnerRunResult run =
        runtime_.inner.run(*cls.algorithm, std::move(seeds), class_deadline);
    result.stats.merge(run.stats);
    matches = run.matches;
    timed = run.timed_out;
  } else {
    util::ThreadCpuTimer timer;
    csm::MatchSink sink;
    sink.deadline = class_deadline;
    for (const auto& task : seeds) {
      cls.algorithm->expand(task, sink, nullptr);
      if (sink.stopped()) break;
    }
    result.stats.serial_ns += timer.elapsed_ns();
    matches = sink.matches;
    timed = sink.timed_out();
  }
  if (!timed) return {matches, false, false};
  if (budgeted && !deadline_expired(deadline)) return {matches, true, false};
  return {matches, false, true};
}

void MultiQueryEngine::run_searches(const GraphUpdate& eff, const bool positive,
                                    const util::Clock::time_point deadline,
                                    MultiStreamResult& result) {
  // Tier 3 gate: a class none of whose shared seed anchors pass cannot gain
  // or lose a match through this edge — skip its search outright. For
  // insertions the endpoints' signatures already include the new edge (we
  // run after add_edge); for deletions the edge is still present.
  const bool use_anchors = shared_eval_;
  if (use_anchors) {
    anchor_scratch_.reset();
    anchors_.filter(g_.label(eff.u), g_.label(eff.v), eff.label,
                    g_.nlf_signature(eff.u), g_.nlf_signature(eff.v),
                    anchor_scratch_, result.mq.anchors_checked);
  }
  std::vector<std::uint64_t>& out = positive ? result.positive : result.negative;
  need_scratch_.for_each_set([&](const std::size_t c) {
    EvalClass& cls = classes_[c];
    if (!cls.active) return;
    if (use_anchors && !anchor_scratch_.test(c)) {
      ++result.mq.searches_skipped;
      return;
    }
#if defined(PARACOSM_TRACE_ENABLED)
    const bool traced =
        obs::trace_level() >= obs::event_level(obs::EventKind::kMultiSearch);
    const std::int64_t t0 = traced ? obs::now_ns() : 0;
#endif
    const SearchOutcome outcome = search_class(cls, eff, deadline, result);
#if defined(PARACOSM_TRACE_ENABLED)
    if (traced)
      obs::trace_complete(obs::EventKind::kMultiSearch, t0, c, cls.members.size(),
                          outcome.matches);
#endif
    ++result.mq.searches_run;
    result.mq.searches_shared += cls.members.size() - 1;
    for (const std::size_t m : cls.members) {
      out[m] += outcome.matches;
      if (outcome.degraded) ++result.degraded[m];
    }
    result.timed_out = result.timed_out || outcome.timed_out;
  });
}

void MultiQueryEngine::process_unsafe(const GraphUpdate& upd,
                                      const util::Clock::time_point deadline,
                                      MultiStreamResult& result) {
  // Vertex operations: trivial for matching; keep graph + indexes aligned.
  if (upd.op == UpdateOp::kInsertVertex) {
    const bool existed = g_.has_vertex(upd.u);
    g_.add_vertex_with_id(upd.u, upd.label);
    if (!existed)
      for (EvalClass& cls : classes_)
        if (cls.active) cls.algorithm->on_vertex_added(upd.u);
    return;
  }
  if (upd.op == UpdateOp::kRemoveVertex) {
    if (!g_.has_vertex(upd.u)) return;
    std::vector<GraphUpdate> removals;
    for (const auto& nb : g_.neighbors(upd.u))
      removals.push_back(GraphUpdate::remove_edge(upd.u, nb.v, nb.elabel));
    for (const GraphUpdate& rm : removals) process_unsafe(rm, deadline, result);
    g_.remove_vertex(upd.u);
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_vertex_removed(upd.u);
    return;
  }

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
  need_scratch_.reset();
  bool need_any = false;
  if (shared_eval_) {
    ensure_scratch(1);
    classify_shared(upd, scratch_.front(), &need_scratch_);
    need_any = need_scratch_.any();
  } else {
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].active) {
        need_scratch_.set(c);
        need_any = true;
      }
    }
  }

  if (insert) {
    if (!g_.add_edge(upd.u, upd.v, upd.label)) return;
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_edge_inserted(upd);
    if (need_any) run_searches(eff, /*positive=*/true, deadline, result);
  } else {
    if (need_any) run_searches(eff, /*positive=*/false, deadline, result);
    g_.remove_edge(upd.u, upd.v);
    for (EvalClass& cls : classes_)
      if (cls.active) cls.algorithm->on_edge_removed(eff);
  }
}

// ---------------------------------------------------------------------------
// Stream loop

MultiStreamResult MultiQueryEngine::process_stream(
    const std::span<const GraphUpdate> stream, const util::Clock::time_point deadline) {
  MultiStreamResult result;
  result.positive.assign(slots_.size(), 0);
  result.negative.assign(slots_.size(), 0);
  result.degraded.assign(slots_.size(), 0);
  const unsigned nthreads = runtime_.pool.size();
  result.stats.ensure_size(nthreads);
  ensure_scratch(nthreads);

  const unsigned k = config_.effective_batch_size();
  std::size_t i = 0;
  while (i < stream.size()) {
    if (deadline_expired(deadline)) {
      result.timed_out = true;
      break;
    }
    const std::size_t count = std::min<std::size_t>(k, stream.size() - i);

    // Phase 1 — parallel combined classification (one shared pass per
    // update instead of one classifier call per query).
    if (safe_.size() < count) safe_.resize(count);
    std::fill(safe_.begin(), safe_.begin() + static_cast<std::ptrdiff_t>(count), 0);
    if (nthreads > 1 && count > 1) {
      runtime_.pool.run([&](unsigned wid) {
        util::ThreadCpuTimer timer;
        ClassifyScratch& s = scratch_[wid];
        for (std::size_t j = wid; j < count; j += nthreads)
          safe_[j] = (shared_eval_ ? classify_shared(stream[i + j], s, nullptr)
                                   : safe_for_all_legacy(stream[i + j]))
                         ? 1
                         : 0;
        result.stats.workers[wid].busy_ns += timer.elapsed_ns();
      });
      result.stats.dispatch_ns += runtime_.pool.last_dispatch_ns();
    } else {
      util::ThreadCpuTimer timer;
      ClassifyScratch& s = scratch_.front();
      for (std::size_t j = 0; j < count; ++j)
        safe_[j] = (shared_eval_ ? classify_shared(stream[i + j], s, nullptr)
                                 : safe_for_all_legacy(stream[i + j]))
                       ? 1
                       : 0;
      result.stats.serial_ns += timer.elapsed_ns();
    }

    // Phase 2 — strict-mode safe prefix, applied in parallel.
    touched_.prepare(2 * count);
    std::size_t prefix = 0;
    bool hit_unsafe = false;
    while (prefix < count) {
      const GraphUpdate& upd = stream[i + prefix];
      if (!safe_[prefix]) {
        hit_unsafe = true;
        break;
      }
      if (upd.is_edge_op() &&
          (touched_.contains(upd.u) || touched_.contains(upd.v)))
        break;
      if (upd.is_edge_op()) {
        touched_.insert(upd.u);
        touched_.insert(upd.v);
      }
      ++prefix;
    }
    if (prefix > 0) {
      if (nthreads > 1 && prefix > 1) {
        ShardedCursor cursor(prefix, nthreads, runtime_.pool.node_map());
        runtime_.pool.run([&](unsigned wid) {
          util::ThreadCpuTimer timer;
          std::uint64_t applied = 0;
          for (std::size_t j = cursor.claim(wid); j != ShardedCursor::npos;
               j = cursor.claim(wid)) {
            const GraphUpdate& upd = stream[i + j];
            locks_.lock_pair(upd.u, upd.v);
            apply_safe(upd);
            locks_.unlock_pair(upd.u, upd.v);
            ++applied;
          }
          WorkerStats& ws = result.stats.workers[wid];
          ws.busy_ns += timer.elapsed_ns();
          ws.shard_updates += applied;
        });
        result.stats.dispatch_ns += runtime_.pool.last_dispatch_ns();
      } else {
        util::ThreadCpuTimer timer;
        for (std::size_t j = 0; j < prefix; ++j) apply_safe(stream[i + j]);
        result.stats.serial_ns += timer.elapsed_ns();
      }
      result.safe_applied += prefix;
      result.updates_processed += prefix;
    }
    i += prefix;

    if (hit_unsafe) {
      ++result.unsafe_sequential;
      process_unsafe(stream[i], deadline, result);
      ++result.updates_processed;
      ++i;
    }
  }

  for (ClassifyScratch& s : scratch_) {
    result.mq.merge(s.mq);
    s.mq = MultiQueryStats{};
  }
  return result;
}

}  // namespace paracosm::engine
