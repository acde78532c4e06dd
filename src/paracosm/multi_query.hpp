// Multi-query ParaCOSM: continuous matching of MANY query patterns over one
// shared update stream — the deployment shape of the paper's motivating
// applications (a fraud system monitors a catalogue of patterns, not one).
// It is also the framework's one engine: ParaCosm (paracosm.hpp) is this
// engine with a single caller-owned registration.
//
// Shared evaluation (ISSUE 6): per-update cost is sub-linear in the number
// of registered queries. Three tiers, each sound by construction:
//
//  tier 1 — query index (query_index.hpp): one hash probe on the update's
//    (endpoint label, endpoint label, edge label) triple yields the bitmap of
//    possibly-affected evaluation classes; every query outside the bitmap is
//    kSafeLabel without any per-query dispatch.
//  tier 2 — grouped classification: classes over label-isomorphic patterns
//    share one degree-stage evaluation per update (ClassifyGroup memoizes the
//    stage-2 feasibility result across classes within a classification pass).
//  tier 3 — sub-pattern sharing (pattern_share.hpp): queries equal under
//    label-preserving isomorphism (same algorithm, same budget) collapse into
//    one evaluation class — classified once, searched once, counts fanned out
//    to every member — and each class's seed-expansion prefix is gated by the
//    shared packed-NLF anchor table, so searches that provably cannot change
//    ΔM are skipped.
//
// Queries can be registered and removed at runtime (add_query/remove_query);
// the index, anchor table and grouping structures are maintained
// incrementally, and per-query search budgets give deadline/degrade isolation
// (one pathological query cannot stall the rest beyond its budget).
//
// The two-level parallel structure is the paper's inter-update pipeline
// (§4.2, Figure 6; DESIGN.md §4): process_stream classifies a batch in
// parallel (an update is safe iff safe for every registered query), applies
// the safe prefix in parallel (the graph once plus each algorithm's
// counter-cache deltas), and runs the first unsafe update through the
// sequential path, whose searches — for every class the update can affect —
// feed one inner-update executor. Queries may use different CSM algorithms.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "csm/engine.hpp"
#include "paracosm/classifier.hpp"
#include "paracosm/config.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/pattern_share.hpp"
#include "paracosm/query_index.hpp"
#include "paracosm/touched_set.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/cancel.hpp"
#include "util/sync.hpp"

namespace paracosm::engine {

struct MultiStreamResult : StreamCounters {
  // Indexed by query handle (slot id, as returned by add_query). Slots of
  // removed queries stay allocated and report zero.
  std::vector<std::uint64_t> positive;
  std::vector<std::uint64_t> negative;
  std::vector<std::uint64_t> degraded;  ///< searches cut short by the query's budget
  MultiQueryStats mq;

  [[nodiscard]] std::uint64_t total_matches() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < positive.size(); ++i)
      total += positive[i] + negative[i];
    return total;
  }
};

struct QueryOptions {
  /// Per-update search budget for this query in microseconds; 0 = none.
  /// A class search exceeding it is cut at the budget and recorded in
  /// MultiStreamResult::degraded for the query (its ΔM counts for that
  /// update may be partial); other queries are unaffected.
  std::int64_t budget_us = 0;
};

class MultiQueryEngine {
 public:
  using MatchCallback = std::function<void(std::span<const csm::Assignment>)>;

  MultiQueryEngine(graph::DataGraph& g, Config config = {});

  /// Register a pattern with its own algorithm instance. Returns the query
  /// handle (index into MultiStreamResult vectors; freed handles are
  /// reused). The query graph is copied and owned by the engine. Not
  /// thread-safe against a concurrent process_stream.
  std::size_t add_query(std::string_view algorithm, graph::QueryGraph query,
                        QueryOptions opts = {});

  /// Register a caller-owned algorithm instance over a caller-owned query
  /// (both must outlive the registration): runs the offline stage
  /// (`alg.attach(query, graph)`) and searches with `alg` itself, so any
  /// CsmAlgorithm works, including ones make_algorithm does not know. The
  /// registration always gets a private evaluation class — the caller owns
  /// the algorithm's state, so it is never merged with another query.
  std::size_t add_query(csm::CsmAlgorithm& alg, const graph::QueryGraph& query);

  /// Deregister a query. Index bits, anchor entries and — when this was the
  /// last member — the whole evaluation class are released; the handle is
  /// recycled by a later add_query. Returns false for unknown/stale handles.
  bool remove_query(std::size_t handle);

  /// Observe every match the query's searches find (positive and negative)
  /// as a full mapping in assignment order. A class searches with a callback
  /// when any member has one and fans each mapping out to those members; in
  /// a shared class the mapping's query vertices are those of the class's
  /// first-registered pattern (isomorphic to every member's). On the
  /// inner-update executor, matches are buffered per worker and delivered on
  /// the calling thread after quiescence, sorted by (qv, dv) sequence (see
  /// csm/match.hpp, "delivery contract"); with inner parallelism off they
  /// arrive in traversal order.
  void set_match_callback(std::size_t handle, MatchCallback callback);

  /// Disable the shared-evaluation tiers (every query gets a private class,
  /// classified and searched independently — the O(queries) baseline the
  /// scaling bench compares against). Call before registering queries.
  void set_shared_evaluation(bool enabled) noexcept { shared_eval_ = enabled; }
  [[nodiscard]] bool shared_evaluation() const noexcept { return shared_eval_; }

  [[nodiscard]] std::size_t num_queries() const noexcept { return active_queries_; }
  [[nodiscard]] std::size_t num_slots() const noexcept { return slots_.size(); }
  /// Distinct evaluation classes currently active (== num_queries() when
  /// sharing is off or all patterns differ).
  [[nodiscard]] std::size_t num_classes() const noexcept { return active_classes_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] graph::DataGraph& graph() noexcept { return g_; }

  /// Process a whole stream. With inter-update parallelism (the default)
  /// this is the batch pipeline: phase 1 classifies a batch against the
  /// batch-start snapshot, 2a plans the commit — the safe prefix up to the
  /// first unsafe update or, in strict mode, the first endpoint conflict —,
  /// 2b applies that prefix in parallel and 2c runs the unsafe update through
  /// process()'s sequential path; the batch remainder is deferred. With
  /// `inter_parallelism` off every update takes the sequential path in order.
  /// `deadline` bounds the entire stream; `cancel` cuts searches short.
  MultiStreamResult process_stream(std::span<const graph::GraphUpdate> stream,
                                   util::Clock::time_point deadline = {},
                                   util::CancelView cancel = {});

  /// One update through the sequential path, with no batch bookkeeping:
  /// graph and every algorithm's maintenance in order, and a search for each
  /// class that a fresh classification finds unsafe (for every class when
  /// sharing is off). `cancel` and
  /// `deadline` cut searches only; maintenance always completes. The return
  /// value is the update's outcome summed over registrations; the per-handle
  /// counts, `degraded`, `stats` and `mq` accumulate into `into` (its handle
  /// vectors grow to num_slots()).
  csm::UpdateOutcome process(const graph::GraphUpdate& upd, MultiStreamResult& into,
                             util::Clock::time_point deadline = {},
                             util::CancelView cancel = {});

 private:
  /// One evaluation class: a representative pattern + algorithm instance
  /// shared by every member query (label-isomorphic patterns registered with
  /// the same algorithm and budget), or one caller-owned registration.
  struct EvalClass {
    std::unique_ptr<graph::QueryGraph> owned_query;  // null when caller-owned
    std::unique_ptr<csm::CsmAlgorithm> owned_algorithm;
    const graph::QueryGraph* query = nullptr;
    csm::CsmAlgorithm* algorithm = nullptr;
    std::unique_ptr<UpdateClassifier> classifier;
    std::vector<std::size_t> members;  ///< active query handles
    std::string share_key;             ///< empty when not shareable
    std::size_t group_id = 0;
    std::int64_t budget_us = 0;
    bool ignore_edge_labels = false;
    bool has_ads = false;
    bool active = false;
  };

  /// Classes over the same structural pattern (same canonical key and
  /// edge-label mode, any algorithm) share stage-2 degree feasibility: the
  /// per-triple degree-requirement pairs are evaluated once per update and
  /// memoized across the group's classes.
  struct ClassifyGroup {
    std::string key;
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        deg_pairs;  ///< packed triple/pair -> (deg(u1), deg(u2)) requirements
    std::size_t refs = 0;
    bool ignore_edge_labels = false;
    bool active = false;
  };

  struct Slot {
    bool active = false;
    std::size_t class_id = 0;
    MatchCallback on_match;
  };

  /// Per-worker classification scratch: candidate bitmap plus the
  /// epoch-stamped per-group degree-feasibility memo (reset per pass by
  /// bumping the epoch, SearchScratch idiom). Cache-line aligned: workers
  /// bump their own counters on every classification.
  struct alignas(64) ClassifyScratch {
    QueryBitmap candidates;
    MultiQueryStats mq;
    std::vector<std::uint32_t> group_epoch;
    std::vector<std::uint8_t> group_feasible;
    std::uint32_t epoch = 0;
  };

  struct SearchOutcome {
    std::uint64_t matches = 0;
    std::uint64_t nodes = 0;
    bool degraded = false;
    bool timed_out = false;
    bool cancelled = false;
  };

  /// Shared classification of one update against the current graph state.
  /// The verdict is kUnsafe if any class's is, else the latest stage any
  /// class needed — for one registration, exactly UpdateClassifier::classify.
  /// When `need` is non-null (the sequential path's re-check, which records
  /// no trace span: it is not a batch classification), the bit of every
  /// class whose verdict is kUnsafe is set.
  UpdateClass classify_shared(const graph::GraphUpdate& upd, ClassifyScratch& s,
                              QueryBitmap* need) const;
  /// Sharing off: the maximum of every class's own UpdateClassifier verdict.
  [[nodiscard]] UpdateClass classify_independent(const graph::GraphUpdate& upd) const;
  [[nodiscard]] static bool group_degree_feasible(
      const ClassifyGroup& grp, graph::Label lu, graph::Label lv, graph::Label le,
      std::uint32_t du, std::uint32_t dv);

  /// Phase 1 of the batch pipeline: verdicts_[0, batch.size()) for `batch`
  /// (the shared pass, or classify_independent with sharing off), strided
  /// over the pool.
  void classify_batch(std::span<const graph::GraphUpdate> batch,
                      MultiStreamResult& result);
  /// One safe update: adjacency plus counter-cache deltas, no enumeration
  /// (safety guarantees ΔM = ∅ and no index flips).
  void apply_safe(const graph::GraphUpdate& upd);
  void process_edge(const graph::GraphUpdate& upd, util::Clock::time_point deadline,
                    util::CancelView cancel, MultiStreamResult& into,
                    csm::UpdateOutcome& out);
  void run_searches(const graph::GraphUpdate& eff, bool positive,
                    util::Clock::time_point deadline, util::CancelView cancel,
                    MultiStreamResult& into, csm::UpdateOutcome& out);
  SearchOutcome search_class(EvalClass& cls, const graph::GraphUpdate& eff,
                             util::Clock::time_point deadline,
                             util::CancelView cancel, ParallelStats& stats);
  /// The callback `cls` searches with: null when no member observes
  /// matches, the observer's own when one does, else `fan`, set to deliver
  /// to each observer.
  const MatchCallback* class_callback(const EvalClass& cls, MatchCallback& fan) const;

  std::size_t open_class(const graph::QueryGraph& q, csm::CsmAlgorithm& alg,
                         std::string share_key, std::int64_t budget_us);
  std::size_t add_member(std::size_t class_id);
  std::size_t acquire_group(const graph::QueryGraph& q, bool ignore_edge_labels);
  void release_group(std::size_t group_id);
  void ensure_scratch(unsigned nthreads);

  graph::DataGraph& g_;
  Config config_;
  InnerRuntime runtime_;
  util::StripedLocks<64> locks_;

  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;
  std::vector<EvalClass> classes_;
  std::vector<std::size_t> free_classes_;
  std::vector<ClassifyGroup> groups_;
  std::vector<std::size_t> free_groups_;
  std::unordered_map<std::string, std::size_t> class_by_key_;
  std::unordered_map<std::string, std::size_t> group_by_key_;
  QueryIndex index_;
  AnchorTable anchors_;
  std::size_t active_queries_ = 0;
  std::size_t active_classes_ = 0;
  bool shared_eval_ = true;

  // Reusable batch scratch (no per-batch allocation, ISSUE 6 satellite).
  std::vector<UpdateClass> verdicts_;
  TouchedSet touched_;
  std::vector<ClassifyScratch> scratch_;  ///< one per worker
  QueryBitmap need_scratch_;
  QueryBitmap anchor_scratch_;
};

}  // namespace paracosm::engine
