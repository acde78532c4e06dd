// Per-worker pooled search scratch.
//
// Every expand() call used to allocate its partial-match state from scratch;
// under inner-update parallelism that is one heap round-trip per offloaded
// task. SearchScratch instead lives in a thread_local pool (worker_scratch())
// and is re-prepared per task: vectors keep their capacity across tasks, so
// steady-state expansion performs zero allocations.
//
// The `used` check (is data vertex w already matched?) is an epoch-stamped
// array over data-vertex ids instead of the old O(depth) linear scan of the
// assignment list: prepare() bumps the epoch, mark_used stores it, is_used
// compares — so "reset" between tasks is a single increment, not a clear.
// On epoch wrap (every 2^32 tasks) the stamp array is zeroed once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "csm/match.hpp"
#include "graph/types.hpp"
#include "util/hugepage.hpp"

namespace paracosm::csm {

class SearchScratch {
 public:
  /// Reset for a new task over a query with `num_query_vertices` vertices
  /// and a data graph with `data_capacity` vertex slots. O(query size)
  /// amortized; grows (never shrinks) the pooled buffers.
  void prepare(std::uint32_t num_query_vertices, std::uint32_t data_capacity) {
    map.assign(num_query_vertices, graph::kInvalidVertex);
    assigned.clear();
    if (stamp_.size() < data_capacity) {
      stamp_.resize(data_capacity, 0);
      // Worker-private block: hugepage advice (DESIGN.md §10).
      util::advise_hugepages(stamp_.data(), stamp_.size() * sizeof(std::uint32_t));
    }
    if (++epoch_ == 0) {  // wrap: invalidate stale stamps from 2^32 tasks ago
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool is_used(graph::VertexId v) const noexcept {
    return stamp_[v] == epoch_;
  }
  void mark_used(graph::VertexId v) noexcept { stamp_[v] = epoch_; }
  /// Partial matches are injective, so un-marking on backtrack can simply
  /// zero the stamp (the vertex was marked at most once on this path).
  void clear_used(graph::VertexId v) noexcept { stamp_[v] = 0; }

  std::vector<graph::VertexId> map;  ///< query vertex -> data vertex
  std::vector<Assignment> assigned;  ///< assignment order (partial match)

 private:
  std::vector<std::uint32_t> stamp_;  ///< data vertex -> last epoch marked
  std::uint32_t epoch_ = 0;
};

/// The calling thread's pooled scratch. Each executor worker (and the
/// sequential engine's thread) gets its own instance, reused across tasks.
[[nodiscard]] SearchScratch& worker_scratch();

}  // namespace paracosm::csm
