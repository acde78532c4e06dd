// The uniform CSM algorithm interface (the general two-stage model of paper
// §2.2) that ParaCOSM parallelizes. A user plugs an algorithm into ParaCOSM
// by implementing exactly the two hooks the paper names: a search-tree
// traversal routine (`seeds` + `expand`) and a filtering rule (`ads_safe`);
// everything else (scheduling, classification, batching) is framework-side.
//
// Engine contract for ADS maintenance:
//   * insertion:  graph.add_edge  ->  on_edge_inserted  ->  enumerate ΔM+
//   * deletion:   enumerate ΔM-   ->  graph.remove_edge ->  on_edge_removed
// i.e. maintenance hooks always run with the data graph already reflecting
// the change, and enumeration always runs on the state where the matches
// exist.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "csm/match.hpp"
#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"

namespace paracosm::csm {

using graph::DataGraph;
using graph::GraphUpdate;
using graph::QueryGraph;

class CsmAlgorithm {
 public:
  virtual ~CsmAlgorithm() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// False for CaLiG: the original system has no edge-label matching, so the
  /// harness strips edge labels from datasets before running it (exactly the
  /// paper's evaluation protocol).
  [[nodiscard]] virtual bool uses_edge_labels() const noexcept { return true; }

  /// True when the algorithm maintains an auxiliary data structure. The
  /// update classifier must then consult `ads_safe` even for updates whose
  /// endpoint degrees rule out a match, because the ADS may still change.
  [[nodiscard]] virtual bool has_ads() const noexcept { return false; }

  /// Offline stage: bind to (Q, G), build the auxiliary data structure and
  /// matching orders. May be called again to rebind.
  virtual void attach(const QueryGraph& q, const DataGraph& g) = 0;

  /// Rolling checksum over the ADS's flag state (0 for index-free
  /// algorithms), maintained O(1) per flip. The verification contract: a
  /// *safe* update (see `ads_safe`) must leave this value bit-identical —
  /// the PARACOSM_VERIFY build asserts exactly that around every safe batch.
  [[nodiscard]] virtual std::uint64_t ads_checksum() const noexcept { return 0; }

  /// ADS maintenance (see engine contract above). Default: no ADS.
  virtual void on_edge_inserted(const GraphUpdate& /*upd*/) {}
  virtual void on_edge_removed(const GraphUpdate& /*upd*/) {}
  virtual void on_vertex_added(graph::VertexId /*id*/) {}
  virtual void on_vertex_removed(graph::VertexId /*id*/) {}

  /// Stage-3 of the update type classifier (the user-provided "filtering
  /// rule"). Called BEFORE `upd` is applied; must return true only when the
  /// algorithm can prove that applying it flips no ADS state and can neither
  /// create nor destroy a match. Algorithms without an ADS may still prove
  /// safety from graph-only facts (e.g. NewSP's NLF check) or return false.
  [[nodiscard]] virtual bool ads_safe(const GraphUpdate& upd) const = 0;

  /// Root-layer search tasks for an edge update (the first layer of the
  /// search tree: both endpoints mapped). For insertions the graph already
  /// contains the edge; for deletions it still does.
  virtual void seeds(const GraphUpdate& upd, std::vector<SearchTask>& out) const = 0;

  /// The traversal routine: expand `task` to completion, reporting complete
  /// matches to `sink`. When `hook` is non-null the routine may offload
  /// direct subtasks instead of recursing (inner-update parallelism,
  /// Algorithm 2). Must be const and data-race-free: many workers expand
  /// concurrently against the same (read-only between updates) ADS.
  virtual void expand(const SearchTask& task, MatchSink& sink,
                      SplitHook* hook) const = 0;

 protected:
  const QueryGraph* query_ = nullptr;
  const DataGraph* graph_ = nullptr;
};

/// Convenience: all concrete algorithms plus factory helpers live behind
/// names so benches/tests can sweep them.
[[nodiscard]] std::unique_ptr<CsmAlgorithm> make_algorithm(std::string_view name);
[[nodiscard]] std::vector<std::string_view> algorithm_names();

}  // namespace paracosm::csm
