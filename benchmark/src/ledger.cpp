#include "ledger.hpp"

#include <algorithm>
#include <vector>

namespace bench {

using paracosm::obs::EventKind;

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kSearch: return "search";
    case Stage::kSeed: return "seed";
    case Stage::kUpdate: return "update";
    case Stage::kBatch: return "batch";
    case Stage::kClassify: return "classify";
    case Stage::kMqClassify: return "mq_classify";
    case Stage::kMqSearch: return "mq_search";
    case Stage::kService: return "service";
    case Stage::kWalAppend: return "wal_append";
    case Stage::kWalFsync: return "wal_fsync";
    case Stage::kIngest: return "ingest";
    case Stage::kIdle: return "idle";
    case Stage::kCount: break;
  }
  return "?";
}

std::optional<Stage> stage_of(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTaskExpand: return Stage::kSearch;
    case EventKind::kSeedGen: return Stage::kSeed;
    case EventKind::kUpdate: return Stage::kUpdate;
    case EventKind::kBatch: return Stage::kBatch;
    case EventKind::kBatchBackend:
    case EventKind::kClassify: return Stage::kClassify;
    case EventKind::kMultiClassify: return Stage::kMqClassify;
    case EventKind::kMultiSearch: return Stage::kMqSearch;
    case EventKind::kServiceUpdate:
    case EventKind::kMetricsFlush: return Stage::kService;
    case EventKind::kWalAppend: return Stage::kWalAppend;
    case EventKind::kWalFsync: return Stage::kWalFsync;
    default: return std::nullopt;
  }
}

double Ledger::frac(Stage s) const noexcept {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(stage_ns[static_cast<std::size_t>(s)]) /
                            static_cast<double>(wall_ns);
}

double Ledger::unattributed_frac() const noexcept {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(unattributed_ns) / static_cast<double>(wall_ns);
}

namespace {

enum class Source : std::uint8_t { kWindow, kBlocking, kHelper };

struct Edge {
  std::int64_t t;
  bool open;
  Source source;
  std::uint32_t index;     ///< span index (blocking) or stage (helper)
  std::int64_t other_end;  ///< the span's end, to open enclosing spans first
};

}  // namespace

Ledger build_ledger(std::span<const Window> windows, std::span<const Span> blocking,
                    std::span<const Span> helpers) {
  std::vector<Edge> edges;
  edges.reserve(2 * (windows.size() + blocking.size() + helpers.size()));
  for (std::uint32_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end_ns <= windows[i].start_ns) continue;
    edges.push_back({windows[i].start_ns, true, Source::kWindow, i, windows[i].end_ns});
    edges.push_back({windows[i].end_ns, false, Source::kWindow, i, windows[i].start_ns});
  }
  for (std::uint32_t i = 0; i < blocking.size(); ++i) {
    if (blocking[i].end_ns <= blocking[i].start_ns) continue;
    edges.push_back({blocking[i].start_ns, true, Source::kBlocking, i, blocking[i].end_ns});
    edges.push_back({blocking[i].end_ns, false, Source::kBlocking, i, blocking[i].start_ns});
  }
  for (const Span& s : helpers) {
    if (s.end_ns <= s.start_ns) continue;
    const auto stage = static_cast<std::uint32_t>(s.stage);
    edges.push_back({s.start_ns, true, Source::kHelper, stage, s.end_ns});
    edges.push_back({s.end_ns, false, Source::kHelper, stage, s.start_ns});
  }
  // Closes before opens at one instant (intervals are half-open); among
  // opens, the longer span first so a nested child lands on top.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.open != b.open) return !a.open;
    return a.open && a.other_end > b.other_end;
  });

  Ledger ledger;
  int in_window = 0;
  std::vector<std::uint32_t> stack;  // open blocking spans, innermost last
  std::array<std::int64_t, kStageCount> helpers_in{};
  std::int64_t last = edges.empty() ? 0 : edges.front().t;
  for (const Edge& e : edges) {
    const std::int64_t gap = e.t - last;
    if (gap > 0 && in_window > 0) {
      ledger.wall_ns += gap;
      const auto busiest = std::max_element(helpers_in.begin(), helpers_in.end());
      if (*busiest > 0)
        ledger.stage_ns[static_cast<std::size_t>(busiest - helpers_in.begin())] += gap;
      else if (!stack.empty())
        ledger.stage_ns[static_cast<std::size_t>(blocking[stack.back()].stage)] += gap;
      else
        ledger.unattributed_ns += gap;
    }
    last = e.t;
    switch (e.source) {
      case Source::kWindow: in_window += e.open ? 1 : -1; break;
      case Source::kHelper: helpers_in[e.index] += e.open ? 1 : -1; break;
      case Source::kBlocking:
        if (e.open) {
          stack.push_back(e.index);
        } else {
          const auto it = std::find(stack.rbegin(), stack.rend(), e.index);
          if (it != stack.rend()) stack.erase(std::next(it).base());
        }
        break;
    }
  }
  return ledger;
}

}  // namespace bench
