// Event taxonomy of the always-on observability layer (DESIGN.md §8).
//
// Every instrumentation point in the engine maps to one EventKind. An event
// is either a *span* (has a duration: a classifier pass, a WAL fsync, one
// task expansion) or an *instant* (a steal, a prune, a watchdog firing).
// Events carry up to three 64/32-bit args whose meaning is per-kind; the
// Chrome-trace exporter names them via event_arg_names() so Perfetto shows
// "u=12" instead of "a=12".
//
// Kinds are split into two verbosity levels: level 1 covers everything with
// per-update or per-task granularity; level 2 adds the per-search-tree-node
// instants (backtrack enter/prune/emit), which can emit millions of events
// per second and are only worth paying for when zooming into a single search.
#pragma once

#include <array>
#include <cstdint>

namespace paracosm::obs {

enum class EventKind : std::uint32_t {
  kNone = 0,

  // Engine (per update / per batch).
  kUpdate,       ///< span: one update through process(); args op, u, v
  kSeedGen,      ///< span: root-task generation for an update; args u, v
  kClassify,     ///< span: one classifier pass; args verdict, u, v
  kBatch,        ///< span: batch classify + safe-apply phases; args index, size
  kSafeApply,    ///< instant: one safe update applied in a batch; args u, v
  kBatchBackend, ///< span: one batch classify pass; args lanes

  // Inner-update runtime (per task).
  kTaskExpand,   ///< span: one search task expanded by a worker; args depth
  kSteal,        ///< instant: successful Chase-Lev steal; args victim, thief
  kResplit,      ///< instant: a subtree re-split onto the queue; args depth

  // Backtracking search (level 2: per search-tree node).
  kBacktrackEnter,  ///< instant: expand_depth entered; args depth
  kPrune,           ///< instant: candidate rejected by consistency; args depth
  kEmit,            ///< instant: full mapping emitted; args depth

  // Service layer (per update).
  kServiceUpdate,  ///< span: the pop->WAL->search pipeline; args seq, op
  kWalAppend,      ///< span: WAL record append; args seq
  kWalFsync,       ///< span: WAL stream flush
  kWatchdogFire,   ///< instant: deadline enforced; args epoch
  kMetricsFlush,   ///< span: periodic metrics snapshot written; args processed

  // Shared multi-query evaluation (per update / per class).
  kMultiClassify,  ///< span: shared classification of one update across all
                   ///< classes; args candidates, u, v
  kMultiSearch,    ///< span: one shared per-class search; args class, members,
                   ///< matches

  // Sharded operation (coordinator side, per request / per incident).
  kShardRequest,   ///< span: one request/ack round trip; args shard, seq, type
  kShardRetry,     ///< instant: a transport retry; args shard, seq, error
  kShardRestart,   ///< instant: supervised shard restart; args shard, restarts

  kCount
};

inline constexpr std::uint32_t kEventKindCount =
    static_cast<std::uint32_t>(EventKind::kCount);

/// Verbosity level an event kind belongs to (see file comment).
[[nodiscard]] constexpr int event_level(EventKind k) noexcept {
  switch (k) {
    case EventKind::kBacktrackEnter:
    case EventKind::kPrune:
    case EventKind::kEmit:
      return 2;
    default:
      return 1;
  }
}

/// Stable display name (Chrome trace "name" field).
[[nodiscard]] constexpr const char* event_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kUpdate: return "update";
    case EventKind::kSeedGen: return "seed_gen";
    case EventKind::kClassify: return "classify";
    case EventKind::kBatch: return "batch";
    case EventKind::kSafeApply: return "safe_apply";
    case EventKind::kBatchBackend: return "batch_backend";
    case EventKind::kTaskExpand: return "task";
    case EventKind::kSteal: return "steal";
    case EventKind::kResplit: return "resplit";
    case EventKind::kBacktrackEnter: return "bt_enter";
    case EventKind::kPrune: return "bt_prune";
    case EventKind::kEmit: return "bt_emit";
    case EventKind::kServiceUpdate: return "service_update";
    case EventKind::kWalAppend: return "wal_append";
    case EventKind::kWalFsync: return "wal_fsync";
    case EventKind::kWatchdogFire: return "watchdog_fire";
    case EventKind::kMetricsFlush: return "metrics_flush";
    case EventKind::kMultiClassify: return "multi_classify";
    case EventKind::kMultiSearch: return "multi_search";
    case EventKind::kShardRequest: return "shard_request";
    case EventKind::kShardRetry: return "shard_retry";
    case EventKind::kShardRestart: return "shard_restart";
    case EventKind::kCount: break;
  }
  return "?";
}

/// Chrome trace "cat" field: the subsystem an event belongs to.
[[nodiscard]] constexpr const char* event_category(EventKind k) noexcept {
  switch (k) {
    case EventKind::kUpdate:
    case EventKind::kSeedGen:
    case EventKind::kBatch:
    case EventKind::kSafeApply:
      return "engine";
    case EventKind::kClassify:
    case EventKind::kBatchBackend:
    case EventKind::kMultiClassify:
      return "classifier";
    case EventKind::kMultiSearch:
      return "engine";
    case EventKind::kTaskExpand:
    case EventKind::kSteal:
    case EventKind::kResplit:
      return "sched";
    case EventKind::kBacktrackEnter:
    case EventKind::kPrune:
    case EventKind::kEmit:
      return "search";
    case EventKind::kServiceUpdate:
    case EventKind::kWalAppend:
    case EventKind::kWalFsync:
    case EventKind::kWatchdogFire:
    case EventKind::kMetricsFlush:
      return "service";
    case EventKind::kShardRequest:
    case EventKind::kShardRetry:
    case EventKind::kShardRestart:
      return "shard";
    default:
      return "misc";
  }
}

/// Names of the (a, b, c) args for the exporter; nullptr = arg unused.
[[nodiscard]] constexpr std::array<const char*, 3> event_arg_names(
    EventKind k) noexcept {
  switch (k) {
    case EventKind::kUpdate: return {"op", "u", "v"};
    case EventKind::kSeedGen: return {"u", "v", nullptr};
    case EventKind::kClassify: return {"verdict", "u", "v"};
    case EventKind::kBatch: return {"index", "size", "safe_prefix"};
    case EventKind::kSafeApply: return {"u", "v", nullptr};
    case EventKind::kBatchBackend: return {"lanes", nullptr, nullptr};
    case EventKind::kTaskExpand: return {"depth", nullptr, nullptr};
    case EventKind::kSteal: return {"victim", "thief", nullptr};
    case EventKind::kResplit: return {"depth", nullptr, nullptr};
    case EventKind::kBacktrackEnter: return {"depth", nullptr, nullptr};
    case EventKind::kPrune: return {"depth", nullptr, nullptr};
    case EventKind::kEmit: return {"depth", nullptr, nullptr};
    case EventKind::kServiceUpdate: return {"seq", "op", nullptr};
    case EventKind::kWalAppend: return {"seq", nullptr, nullptr};
    case EventKind::kWalFsync: return {nullptr, nullptr, nullptr};
    case EventKind::kWatchdogFire: return {"epoch", nullptr, nullptr};
    case EventKind::kMetricsFlush: return {"processed", nullptr, nullptr};
    case EventKind::kMultiClassify: return {"candidates", "u", "v"};
    case EventKind::kMultiSearch: return {"class", "members", "matches"};
    case EventKind::kShardRequest: return {"shard", "seq", "type"};
    case EventKind::kShardRetry: return {"shard", "seq", "error"};
    case EventKind::kShardRestart: return {"shard", "restarts", nullptr};
    default: return {"a", "b", "c"};
  }
}

}  // namespace paracosm::obs
