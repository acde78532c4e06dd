// Deterministic stream fuzzer: seeded adversarial workloads cross-checked
// against the recompute oracle (oracle_mirror.hpp) and across every engine
// configuration.
//
// One 64-bit seed expands (splitmix64 -> xoshiro, util/rng.hpp) into a full
// (data graph, query set, update stream) triple; the same seed always
// reproduces the same case on every platform. The generator is deliberately
// adversarial where CSM implementations historically break:
//
//   * label skew      — a heavy head label inflates candidate sets and NLF
//                       counter traffic;
//   * hub vertices    — a few high-degree anchors concentrate flips and
//                       stress worklist propagation in the ADS;
//   * churn           — deleted edges are re-inserted later (flag flip-back,
//                       counter underflow bugs);
//   * duplicates      — inserts of existing edges and ops on dead vertices
//                       must be exact no-ops everywhere;
//   * vertex ops      — capacity growth and incident-edge cascades.
//
// check_case() runs the full verification matrix for one case: every
// requested algorithm × lane (sequential / inner-parallel / batch executor)
// × thread count, reconciling each cell against a cached oracle trace.
// check_cell() runs a single cell — the shrinker's predicate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "csm/algorithm.hpp"
#include "paracosm/config.hpp"
#include "verify/oracle_mirror.hpp"

namespace paracosm::verify {

/// Generation knobs; generate_case draws actual sizes per seed from these
/// ranges, so one knob set covers a spread of shapes.
struct FuzzKnobs {
  std::uint32_t min_vertices = 16;
  std::uint32_t max_vertices = 48;
  double min_avg_degree = 2.0;
  double max_avg_degree = 5.0;
  std::uint32_t max_vertex_labels = 4;  ///< drawn in [1, max]
  std::uint32_t max_edge_labels = 2;    ///< drawn in [1, max]
  std::uint32_t min_query_size = 3;
  std::uint32_t max_query_size = 5;
  std::uint32_t num_queries = 2;
  std::uint32_t stream_length = 48;

  // Adversarial dials (each a probability unless noted).
  double label_skew = 0.5;      ///< P(vertex takes the head label)
  double hub_bias = 0.35;       ///< P(an edge anchors at a hub vertex)
  double churn = 0.3;           ///< P(a delete is queued for re-insertion)
  double duplicate_rate = 0.1;  ///< P(emit an insert of an existing edge)
  double vertex_op_rate = 0.06; ///< P(emit a vertex insert/remove)
  double invalid_rate = 0.05;   ///< P(emit a structurally invalid op: ghost
                                ///  endpoints, self-loops, dead-vertex removes)
  double delete_rate = 0.35;    ///< P(a structural op is a deletion)
};

/// A self-contained fuzz workload. Everything needed to replay it is here
/// (and serializable via repro.hpp).
struct FuzzCase {
  std::uint64_t seed = 0;
  graph::DataGraph graph;
  std::vector<graph::QueryGraph> queries;
  std::vector<graph::GraphUpdate> stream;
};

[[nodiscard]] FuzzCase generate_case(std::uint64_t seed,
                                     const FuzzKnobs& knobs = {});

/// Which execution path a cell exercises.
enum class Lane : std::uint8_t {
  kSequential,  ///< inner + inter parallelism off (pure SequentialEngine path)
  kInner,       ///< inner-update executor (Algorithm 2), per-update
  kBatch,       ///< inter-update batch executor (Figure 6), strict mode
};

[[nodiscard]] std::string_view lane_name(Lane lane) noexcept;

struct LaneConfig {
  Lane lane = Lane::kSequential;
  unsigned threads = 1;
  /// Inner-update scheduler (kInner and kBatch lanes; DESIGN.md §4).
  engine::Scheduler scheduler = engine::Scheduler::kCentralQueue;
};

/// The default verification matrix: sequential, plus the two parallel
/// executors at each of `threads`, plus a work-stealing twin of the inner
/// cells at 2 and 8 threads (when requested).
[[nodiscard]] std::vector<LaneConfig> default_lane_matrix(
    const std::vector<unsigned>& threads = {1, 2, 4, 8});

/// One reconciliation failure, with everything needed to reproduce it.
struct Divergence {
  std::uint64_t seed = 0;
  std::string algorithm;
  Lane lane = Lane::kSequential;
  unsigned threads = 1;
  engine::Scheduler scheduler = engine::Scheduler::kCentralQueue;
  std::uint32_t query_index = 0;
  /// Update at which the divergence was detected (per-update lanes only;
  /// the batch lane reconciles whole-stream totals).
  std::optional<std::uint32_t> update_index;
  std::string message;

  [[nodiscard]] std::string to_string() const;
  /// The cell that diverged, for re-running it.
  [[nodiscard]] LaneConfig lane_config() const {
    return {lane, threads, scheduler};
  }
};

/// Algorithm construction hook. The default forwards to csm::make_algorithm;
/// tests substitute fault-injecting wrappers to prove the harness catches
/// (and shrinks) real classifier bugs.
using AlgorithmFactory =
    std::function<std::unique_ptr<csm::CsmAlgorithm>(std::string_view)>;

/// All algorithms the fuzzer sweeps: the five incremental algorithms of the
/// default registry sweep plus rapidflow, iedyn (tree queries only — cells
/// with cyclic queries are skipped) and the incisomatch recompute baseline
/// (counting-only: mapping reconciliation is skipped, counts still checked).
[[nodiscard]] std::vector<std::string_view> fuzz_algorithms();

struct CheckOptions {
  std::vector<std::string_view> algorithms = fuzz_algorithms();
  std::vector<LaneConfig> lanes = default_lane_matrix();
  AlgorithmFactory factory;   ///< null -> csm::make_algorithm
  bool check_mappings = true; ///< strict delta reconciliation
  bool stop_at_first = true;  ///< return on the first divergence
};

/// Factory producing algorithms with a deliberately unsound filtering rule:
/// a deterministic (hash-selected, ~1/leak_mod) subset of updates the real
/// `ads_safe` rejects is leaked as "safe". The batch executor then applies
/// those updates without enumeration, silently dropping their ΔM — exactly
/// the class of classifier bug the harness exists to catch. Used by
/// `paracosm_fuzz --fault` and by the self-test that proves an injected bug
/// is caught and shrunk.
[[nodiscard]] AlgorithmFactory make_classifier_fault_factory(
    std::uint32_t leak_mod = 3);

/// Run one cell: `algorithm` on `c.queries[query_index]` through `lane`.
/// `trace` must be the oracle trace for that query in the algorithm's
/// edge-label mode. Returns the divergence, nullopt if the cell agrees (or
/// is skipped: unknown algorithm, iedyn × cyclic query).
[[nodiscard]] std::optional<Divergence> check_cell(
    const FuzzCase& c, std::string_view algorithm, std::uint32_t query_index,
    const LaneConfig& lane, const OracleTrace& trace,
    const AlgorithmFactory& factory = {}, bool check_mappings = true);

/// Build the oracle trace for one query of the case. `use_edge_labels`
/// must match the algorithm under test (CaLiG is edge-label-blind).
[[nodiscard]] OracleTrace oracle_trace_for(const FuzzCase& c,
                                           std::uint32_t query_index,
                                           bool use_edge_labels, bool strict);

/// Run the whole matrix over one case. Oracle traces are computed once per
/// (query, edge-label mode) and shared across all cells.
[[nodiscard]] std::vector<Divergence> check_case(const FuzzCase& c,
                                                 const CheckOptions& opts = {});

}  // namespace paracosm::verify
