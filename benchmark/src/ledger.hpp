// Stage ledger: splits measured wall time into the stages the program's own
// spans (DESIGN.md §8) already mark, without adding instrumentation points.
//
// The timeline of each measured window is partitioned, instant by instant:
//   1. while any helper lane (a pool worker) is inside a span, the instant
//      belongs to the stage most helpers are in — the blocking lane is then
//      waiting on a fork/join region;
//   2. otherwise it belongs to the innermost span open on the blocking lane
//      (the thread the measured call runs on: the bench's caller for replay,
//      the service consumer for serving);
//   3. otherwise it is unattributed.
// Because it is a partition, Σ stage time + unattributed = wall holds exactly,
// and a growing unattributed share means work is happening outside any span.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "obs/event.hpp"

namespace bench {

enum class Stage : std::uint8_t {
  kSearch,      ///< kTaskExpand: backtracking on the inner-update executor
  kSeed,        ///< kSeedGen: root-task generation
  kUpdate,      ///< kUpdate self time: graph + ADS maintenance, dispatch wait
  kBatch,       ///< kBatch self time: commit plan + safe-prefix apply
  kClassify,    ///< kBatchBackend / kClassify: safe/unsafe classification
  kMqClassify,  ///< kMultiClassify: shared multi-query classification
  kMqSearch,    ///< kMultiSearch self time: per-class seeding + dispatch
  kService,     ///< kServiceUpdate self time: ring hand-off, watchdog, accounting
  kWalAppend,   ///< kWalAppend
  kWalFsync,    ///< kWalFsync
  kIngest,      ///< bench-side: an update was queued but the consumer had not picked it up
  kIdle,        ///< bench-side: the consumer had nothing submitted to work on
  kCount,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

[[nodiscard]] const char* stage_name(Stage s) noexcept;

/// The stage an engine event kind marks; nullopt for instants and kinds the
/// ledger does not attribute.
[[nodiscard]] std::optional<Stage> stage_of(paracosm::obs::EventKind kind) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Stage stage = Stage::kSearch;
};

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Ledger {
  std::array<std::int64_t, kStageCount> stage_ns{};
  std::int64_t unattributed_ns = 0;
  std::int64_t wall_ns = 0;

  [[nodiscard]] double frac(Stage s) const noexcept;
  [[nodiscard]] double unattributed_frac() const noexcept;
};

/// Partition the union of `windows` (disjoint) by the rule in the file
/// comment. Spans may extend past a window; only the overlap counts. Spans
/// of one lane nest (RAII scopes), so a blocking stage's total is the self
/// time of its spans: their duration minus what nested spans cover.
[[nodiscard]] Ledger build_ledger(std::span<const Window> windows,
                                  std::span<const Span> blocking,
                                  std::span<const Span> helpers);

}  // namespace bench
