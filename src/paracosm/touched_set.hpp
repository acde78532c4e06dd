// Epoch-stamped open-addressing set over vertex ids: the batch executor's
// strict-mode endpoint-disjointness check (DESIGN.md §4) without per-batch
// construction. Reset is one epoch bump (the SearchScratch idiom); the slot
// arrays are cleared only when the 32-bit epoch wraps. Both engines
// (ParaCosm, MultiQueryEngine) keep one as a member.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace paracosm::engine {

class TouchedSet {
 public:
  /// Start a new batch that will insert at most `expected_inserts` ids:
  /// empties the set and grows the table to keep the load factor <= 1/4.
  void prepare(const std::size_t expected_inserts) {
    // With 4x slots the linear probe always terminates and stays short.
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

  [[nodiscard]] bool contains(const graph::VertexId v) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = (v * 0x9E3779B9u) & mask;; i = (i + 1) & mask) {
      if (stamps_[i] != epoch_) return false;
      if (keys_[i] == v) return true;
    }
  }

  void insert(const graph::VertexId v) noexcept {
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

  /// Slots currently allocated (tests observe growth through this).
  [[nodiscard]] std::size_t slots() const noexcept { return keys_.size(); }

 private:
  std::vector<graph::VertexId> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;
};

}  // namespace paracosm::engine
