// Striped work cursor for the §4.2 batch executor.
//
// The batch executor used to hand the safe prefix to the pool through ONE
// shared atomic cursor: every applied update paid a fetch_add on the same
// cache line, so at 8+ workers the cursor itself became the contended object.
// ShardedCursor splits [0, total) into one contiguous shard per worker, each
// with its own cache-line-aligned cursor; a worker drains its shard with
// uncontended CAS claims and only visits other shards (stealing the
// straggler's remainder) once its own is empty. Contiguous shards also keep
// each worker walking a contiguous slice of the batch — sequential access on
// the update array instead of an interleaved scatter.
//
// apply_safe_prefix below is the one phase-2b loop both engines (ParaCosm,
// MultiQueryEngine) run over a strict-mode safe prefix.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "graph/types.hpp"
#include "paracosm/stats.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

class ShardedCursor {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  ShardedCursor(std::size_t total, unsigned workers)
      : n_(workers == 0 ? 1u : workers), shards_(new Shard[n_]) {
    const std::size_t base = total / n_;
    const std::size_t extra = total % n_;
    std::size_t begin = 0;
    for (unsigned i = 0; i < n_; ++i) {
      const std::size_t len = base + (i < extra ? 1 : 0);
      shards_[i].next.store(begin, std::memory_order_relaxed);
      shards_[i].end = begin + len;
      begin += len;
    }
  }

  /// Claim the next index for worker `wid`, own shard first, then the
  /// others in ring order; npos when the whole range is drained.
  [[nodiscard]] std::size_t claim(unsigned wid) noexcept {
    for (unsigned k = 0; k < n_; ++k) {
      Shard& s = shards_[(wid + k) % n_];
      std::size_t j = s.next.load(std::memory_order_relaxed);
      // CAS loop (not fetch_add) so losing thieves never push the cursor
      // past `end` — overshoot would make shard-size accounting lie.
      while (j < s.end) {
        if (s.next.compare_exchange_weak(j, j + 1, std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
          return j;
      }
    }
    return npos;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  unsigned n_;
  std::unique_ptr<Shard[]> shards_;
};

/// Phase 2b of the batch executor: apply a strict-mode safe prefix across
/// `pool`. Each worker drains its ShardedCursor shard, then stragglers'
/// remainders; `locks` serialize the rare stripe collisions. A one-worker
/// pool or a one-update prefix runs inline on the caller. `apply(upd)`
/// performs one safe update (adjacency plus counter-cache deltas).
template <typename Apply>
void apply_safe_prefix(WorkerPool& pool, util::StripedLocks<64>& locks,
                       std::span<const graph::GraphUpdate> prefix,
                       ParallelStats& stats, const Apply& apply) {
  const unsigned nthreads = pool.size();
  if (nthreads > 1 && prefix.size() > 1) {
    stats.ensure_size(nthreads);
    ShardedCursor cursor(prefix.size(), nthreads);
    pool.run([&](unsigned wid) {
      util::ThreadCpuTimer timer;
      std::uint64_t applied = 0;
      for (std::size_t j = cursor.claim(wid); j != ShardedCursor::npos;
           j = cursor.claim(wid)) {
        const graph::GraphUpdate& upd = prefix[j];
        locks.lock_pair(upd.u, upd.v);
        apply(upd);
        locks.unlock_pair(upd.u, upd.v);
        ++applied;
      }
      WorkerStats& ws = stats.workers[wid];
      ws.busy_ns += timer.elapsed_ns();
      ws.shard_updates += applied;
    });
    stats.dispatch_ns += pool.last_dispatch_ns();
  } else {
    util::ThreadCpuTimer timer;
    for (const graph::GraphUpdate& upd : prefix) apply(upd);
    stats.serial_ns += timer.elapsed_ns();
  }
}

}  // namespace paracosm::engine
