// Multi-query ParaCOSM: continuous matching of MANY query patterns over one
// shared update stream — the deployment shape of the paper's motivating
// applications (a fraud system monitors a catalogue of patterns, not one).
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
// The two-level parallel structure carries over: per update, the search
// trees of all affected classes feed one inner-update executor; per batch,
// an update is safe iff every registered query's (shared) classification says
// so, and safe updates apply the graph once plus each algorithm's
// counter-cache deltas. Queries may use different CSM algorithms.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "paracosm/classifier.hpp"
#include "paracosm/config.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/pattern_share.hpp"
#include "paracosm/query_index.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/sync.hpp"

namespace paracosm::engine {

struct MultiStreamResult {
  // Indexed by query handle (slot id, as returned by add_query). Slots of
  // removed queries stay allocated and report zero.
  std::vector<std::uint64_t> positive;
  std::vector<std::uint64_t> negative;
  std::vector<std::uint64_t> degraded;  ///< searches cut short by the query's budget
  std::uint64_t updates_processed = 0;
  std::uint64_t safe_applied = 0;
  std::uint64_t unsafe_sequential = 0;
  bool timed_out = false;
  ParallelStats stats;
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
  MultiQueryEngine(graph::DataGraph& g, Config config = {});

  /// Register a pattern with its own algorithm instance. Returns the query
  /// handle (index into MultiStreamResult vectors; freed handles are
  /// reused). The query graph is copied and owned by the engine. Not
  /// thread-safe against a concurrent process_stream.
  std::size_t add_query(std::string_view algorithm, graph::QueryGraph query,
                        QueryOptions opts = {});

  /// Deregister a query. Index bits, anchor entries and — when this was the
  /// last member — the whole evaluation class are released; the handle is
  /// recycled by a later add_query. Returns false for unknown/stale handles.
  bool remove_query(std::size_t handle);

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

  /// Process a whole stream with batched classification. An update is safe
  /// iff safe for every query.
  MultiStreamResult process_stream(std::span<const graph::GraphUpdate> stream,
                                   util::Clock::time_point deadline = {});

 private:
  /// One evaluation class: a representative pattern + algorithm instance
  /// shared by every member query (label-isomorphic patterns registered with
  /// the same algorithm and budget).
  struct EvalClass {
    std::unique_ptr<graph::QueryGraph> query;  // stable address for the alg
    std::unique_ptr<csm::CsmAlgorithm> algorithm;
    std::unique_ptr<UpdateClassifier> classifier;
    std::vector<std::size_t> members;  ///< active query handles
    std::string share_key;             ///< empty when sharing is off
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
  };

  /// Per-worker classification scratch: candidate bitmap plus the
  /// epoch-stamped per-group degree-feasibility memo (reset per pass by
  /// bumping the epoch, SearchScratch idiom).
  struct ClassifyScratch {
    QueryBitmap candidates;
    MultiQueryStats mq;
    std::vector<std::uint32_t> group_epoch;
    std::vector<std::uint8_t> group_feasible;
    std::uint32_t epoch = 0;
  };

  /// Epoch-stamped open-addressing set over vertex ids: the batch loop's
  /// endpoint-disjointness check without per-batch construction (the
  /// SearchScratch idiom; reset = one epoch bump, clear only on wrap).
  class TouchedSet {
   public:
    void prepare(std::size_t expected_inserts);
    [[nodiscard]] bool contains(graph::VertexId v) const noexcept;
    void insert(graph::VertexId v) noexcept;

   private:
    std::vector<graph::VertexId> keys_;
    std::vector<std::uint32_t> stamps_;
    std::uint32_t epoch_ = 0;
  };

  struct SearchOutcome {
    std::uint64_t matches = 0;
    bool degraded = false;
    bool timed_out = false;
  };

  /// Shared classification of one update against the current graph state.
  /// Returns true iff the update is safe for every registered query. When
  /// `need` is non-null, the bit of every class whose verdict is kUnsafe is
  /// set (the classes that must search if the update is processed).
  bool classify_shared(const graph::GraphUpdate& upd, ClassifyScratch& s,
                       QueryBitmap* need) const;
  [[nodiscard]] bool safe_for_all_legacy(const graph::GraphUpdate& upd) const;
  [[nodiscard]] static bool group_degree_feasible(
      const ClassifyGroup& grp, graph::Label lu, graph::Label lv, graph::Label le,
      std::uint32_t du, std::uint32_t dv);

  void apply_safe(const graph::GraphUpdate& upd);
  void process_unsafe(const graph::GraphUpdate& upd, util::Clock::time_point deadline,
                      MultiStreamResult& result);
  void run_searches(const graph::GraphUpdate& eff, bool positive,
                    util::Clock::time_point deadline, MultiStreamResult& result);
  SearchOutcome search_class(EvalClass& cls, const graph::GraphUpdate& eff,
                             util::Clock::time_point deadline,
                             MultiStreamResult& result);

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
  std::vector<std::uint8_t> safe_;
  TouchedSet touched_;
  std::vector<ClassifyScratch> scratch_;  ///< one per worker
  QueryBitmap need_scratch_;
  QueryBitmap anchor_scratch_;
};

}  // namespace paracosm::engine
