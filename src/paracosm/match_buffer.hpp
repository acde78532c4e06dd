// Per-worker match sinks: the replacement for the global match_mutex.
//
// When a match callback is installed, each worker appends every full mapping
// it finds to its own MatchBuffer (a flat assignment array + end offsets — no
// per-match allocation, no shared state, no lock in the inner loop). At
// quiescence the executor merges all buffers and delivers the callbacks from
// the calling thread in LEXICOGRAPHIC order of the mapping's (query vertex,
// data vertex) pairs.
//
// Ordering contract (see also csm/match.hpp): parallel interleaving makes the
// *discovery* order nondeterministic, so the merge sorts; since ΔM is a set,
// the sorted sequence is a pure function of the match set and therefore
// byte-comparable across the sequential engine and every executor at every
// thread count — the scheduler torture tests assert exactly this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "csm/match.hpp"
#include "util/hugepage.hpp"

namespace paracosm::engine {

/// One worker's private match log. Cache-line aligned so adjacent workers'
/// buffer headers never false-share.
struct alignas(64) MatchBuffer {
  std::vector<csm::Assignment> flat;  ///< concatenated mappings
  std::vector<std::uint64_t> ends;    ///< end offset of each mapping in flat

  void append(std::span<const csm::Assignment> mapping) {
    const std::size_t cap = flat.capacity();
    flat.insert(flat.end(), mapping.begin(), mapping.end());
    // Worker-private sink: on a reallocation of an already-large log, ask
    // for hugepages.
    if (flat.capacity() != cap)
      util::advise_hugepages(flat.data(), flat.capacity() * sizeof(csm::Assignment));
    ends.push_back(static_cast<std::uint64_t>(flat.size()));
  }

  [[nodiscard]] bool empty() const noexcept { return ends.empty(); }

  void clear() noexcept {
    flat.clear();  // keeps capacity: buffers are reused across updates
    ends.clear();
  }
};

/// Merge all worker buffers and invoke `emit` once per mapping, in
/// lexicographic (qv, dv) order. Clears the buffers afterwards.
inline void emit_merged_sorted(
    std::span<MatchBuffer> buffers,
    const std::function<void(std::span<const csm::Assignment>)>& emit) {
  std::vector<std::span<const csm::Assignment>> mappings;
  std::size_t total = 0;
  for (const MatchBuffer& b : buffers) total += b.ends.size();
  mappings.reserve(total);
  for (const MatchBuffer& b : buffers) {
    std::uint64_t begin = 0;
    for (const std::uint64_t end : b.ends) {
      mappings.emplace_back(b.flat.data() + begin, b.flat.data() + end);
      begin = end;
    }
  }
  const auto less = [](std::span<const csm::Assignment> a,
                       std::span<const csm::Assignment> b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const csm::Assignment& x, const csm::Assignment& y) {
          return x.qv != y.qv ? x.qv < y.qv : x.dv < y.dv;
        });
  };
  std::sort(mappings.begin(), mappings.end(), less);
  for (const auto& m : mappings) emit(m);
  for (MatchBuffer& b : buffers) b.clear();
}

}  // namespace paracosm::engine
