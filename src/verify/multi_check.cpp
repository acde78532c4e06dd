#include "verify/multi_check.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "csm/engine.hpp"
#include "paracosm/multi_query.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "util/rng.hpp"

namespace paracosm::verify {

namespace {

using engine::Config;
using engine::MultiQueryEngine;
using engine::MultiStreamResult;
using graph::GraphUpdate;

struct Registration {
  std::uint32_t query_index = 0;
  std::string_view algorithm;
};

struct Totals {
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
};

/// Independent ground truth: one SequentialEngine on a private graph copy,
/// over `updates` (the case's stream, or the order a service applied).
/// `skip` leading updates are processed (graph + ADS warmed) but not counted
/// — the "registered at the midpoint" expectation of the churn lanes.
Totals sequential_totals(const FuzzCase& c, const Registration& reg,
                         std::span<const GraphUpdate> updates,
                         const std::size_t skip, const std::size_t length) {
  auto alg = csm::make_algorithm(reg.algorithm);
  graph::DataGraph g = c.graph;
  csm::SequentialEngine eng(*alg, c.queries[reg.query_index], g);
  Totals t;
  for (std::size_t i = 0; i < length; ++i) {
    const csm::UpdateOutcome out = eng.process(updates[i]);
    if (i < skip) continue;
    t.positive += out.positive;
    t.negative += out.negative;
  }
  return t;
}

Divergence make_divergence(const FuzzCase& c, const Registration& reg,
                           const unsigned threads, const std::uint32_t reg_index,
                           std::string message) {
  Divergence d;
  d.seed = c.seed;
  d.algorithm = std::string(reg.algorithm);
  d.lane = Lane::kBatch;
  d.threads = threads;
  d.query_index = reg_index;
  d.message = std::move(message);
  return d;
}

std::string totals_message(const std::string& lane, const std::size_t handle,
                           const Totals& got_t, const Totals& want) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "multi[%s]: handle %zu got +%llu/-%llu, independent run "
                "+%llu/-%llu",
                lane.c_str(), handle, static_cast<unsigned long long>(got_t.positive),
                static_cast<unsigned long long>(got_t.negative),
                static_cast<unsigned long long>(want.positive),
                static_cast<unsigned long long>(want.negative));
  return buf;
}

/// One run of the churn schedule through a StreamService over `g`.
struct ServedChurn {
  service::ServiceReport report;
  std::size_t h_removed = 0;
  std::size_t h_added = 0;
  bool remove_ok = false;
  std::string admin_error;  ///< what an admin op threw
};

/// Kill-point cells per case of the served lane.
constexpr std::uint32_t kKillPoints = 3;

/// `removed` registered up front; before updates[mid] (after the last one
/// when mid == updates.size()) a drain(), `added` registered, a drain() and
/// `removed` deregistered — the churn lane's schedule through the admin
/// plane. A resumed run passes the stream suffix with `mid` rebased, 0 once
/// the schedule's position has passed: that rebuilds the catalogue.
ServedChurn serve_churn(const FuzzCase& c, graph::DataGraph& g,
                        const Registration& removed, const Registration& added,
                        std::span<const GraphUpdate> updates, const std::size_t mid,
                        const unsigned threads, const service::ServiceOptions& sopts,
                        const service::FaultHooks& hooks) {
  Config cfg;
  cfg.threads = threads;
  cfg.inter_parallelism = false;  // the service processes one update at a time
  MultiQueryEngine engine(g, cfg);
  ServedChurn run;
  run.h_removed = engine.add_query(removed.algorithm, c.queries[removed.query_index]);
  service::StreamService svc(engine, sopts, hooks);
  for (std::size_t i = 0; i <= updates.size(); ++i) {
    if (i == mid) {
      try {
        svc.drain();
        run.h_added = svc.add_query(added.algorithm, c.queries[added.query_index]);
        svc.drain();
        run.remove_ok = svc.remove_query(run.h_removed);
      } catch (const std::exception& e) {
        run.admin_error = e.what();
      }
    }
    if (i < updates.size()) (void)svc.submit(updates[i]);
  }
  run.report = svc.finish();
  return run;
}

}  // namespace

std::vector<std::string_view> multi_check_algorithms() {
  return {"graphflow", "symbi", "turboflux", "newsp", "calig"};
}

std::vector<Divergence> check_multi_case(const FuzzCase& c,
                                         const MultiCheckOptions& opts) {
  std::vector<Divergence> out;
  if (c.queries.empty() || c.stream.empty()) return out;

  const std::vector<std::string_view> algs = multi_check_algorithms();
  std::vector<Registration> regs;
  for (std::uint32_t qi = 0; qi < c.queries.size(); ++qi)
    regs.push_back({qi, algs[qi % algs.size()]});
  if (opts.duplicate_registration) regs.push_back(regs.front());

  // Ground truth once per registration (the duplicate reuses its original's).
  std::vector<Totals> expected;
  for (std::size_t r = 0; r < regs.size(); ++r) {
    if (opts.duplicate_registration && r + 1 == regs.size()) {
      expected.push_back(expected.front());
      break;
    }
    expected.push_back(sequential_totals(c, regs[r], c.stream, 0, c.stream.size()));
  }

  // Lane "static": shared engine at every thread count, plus the sharing-off
  // baseline at the first one and the sequential path (inter-update
  // parallelism off) at the last one.
  struct Cell {
    unsigned threads;
    bool sharing;
    bool inter;
    const char* lane;
  };
  std::vector<Cell> cells;
  for (const unsigned threads : opts.thread_counts)
    cells.push_back({threads, true, true, "static"});
  cells.push_back({opts.thread_counts.front(), false, true, "static/no-share"});
  cells.push_back({opts.thread_counts.back(), true, false, "static/sequential"});
  for (const Cell& cell : cells) {
    graph::DataGraph g = c.graph;
    Config cfg;
    cfg.threads = cell.threads;
    cfg.inter_parallelism = cell.inter;
    MultiQueryEngine engine(g, cfg);
    engine.set_shared_evaluation(cell.sharing);
    std::vector<std::size_t> handles;
    for (const Registration& reg : regs)
      handles.push_back(engine.add_query(reg.algorithm, c.queries[reg.query_index]));
    const MultiStreamResult res = engine.process_stream(c.stream);
    for (std::size_t r = 0; r < regs.size(); ++r) {
      const std::size_t h = handles[r];
      const Totals got_t{res.positive[h], res.negative[h]};
      if (got_t.positive != expected[r].positive ||
          got_t.negative != expected[r].negative) {
        out.push_back(make_divergence(c, regs[r], cell.threads,
                                      static_cast<std::uint32_t>(r),
                                      totals_message(cell.lane, h, got_t, expected[r])));
        if (opts.stop_at_first) return out;
      }
    }
  }

  // Lane "churn": runtime add/remove at the stream midpoint.
  if (opts.runtime_churn && c.stream.size() >= 2) {
    const std::size_t mid = c.stream.size() / 2;
    const Registration& removed = regs.front();
    const Registration added{static_cast<std::uint32_t>(
                                 (regs.front().query_index + 1) % c.queries.size()),
                             algs[1 % algs.size()]};
    const Totals want_removed = sequential_totals(c, removed, c.stream, 0, mid);
    const Totals want_added =
        sequential_totals(c, added, c.stream, mid, c.stream.size());

    for (const unsigned threads : opts.thread_counts) {
      graph::DataGraph g = c.graph;
      Config cfg;
      cfg.threads = threads;
      MultiQueryEngine engine(g, cfg);
      const std::size_t h_removed =
          engine.add_query(removed.algorithm, c.queries[removed.query_index]);
      const MultiStreamResult first =
          engine.process_stream(std::span(c.stream).subspan(0, mid));

      const std::size_t h_added =
          engine.add_query(added.algorithm, c.queries[added.query_index]);
      if (!engine.remove_query(h_removed)) {
        out.push_back(make_divergence(c, removed, threads, 0,
                                      "multi[churn]: remove_query returned false "
                                      "for a live handle"));
        if (opts.stop_at_first) return out;
      }
      const MultiStreamResult second =
          engine.process_stream(std::span(c.stream).subspan(mid));

      const Totals got_removed{first.positive[h_removed] +
                                   second.positive[h_removed],
                               first.negative[h_removed] +
                                   second.negative[h_removed]};
      if (got_removed.positive != want_removed.positive ||
          got_removed.negative != want_removed.negative) {
        out.push_back(
            make_divergence(c, removed, threads, 0,
                            totals_message("churn/removed", h_removed,
                                           got_removed, want_removed)));
        if (opts.stop_at_first) return out;
      }
      const Totals got_added{second.positive[h_added], second.negative[h_added]};
      if (got_added.positive != want_added.positive ||
          got_added.negative != want_added.negative) {
        out.push_back(make_divergence(c, added, threads, 1,
                                      totals_message("churn/added", h_added,
                                                     got_added, want_added)));
        if (opts.stop_at_first) return out;
      }
    }

    // Lane "served": the same schedule through StreamService's admin plane.
    const std::size_t n = c.stream.size();
    // Each handle's served ΔM against the oracle over its window of the
    // order the service applied; `exact` false allows lost matches only.
    const auto check_served = [&](const ServedChurn& run, const std::string& lane,
                                  const unsigned threads,
                                  std::span<const GraphUpdate> applied,
                                  const std::size_t skip, const std::size_t at,
                                  const bool exact) {
      const service::ServiceReport& r = run.report;
      std::string problem;
      if (!r.error.empty()) problem = "consumer error: " + r.error;
      else if (!run.admin_error.empty()) problem = "admin op failed: " + run.admin_error;
      else if (r.stats.processed != applied.size() - skip)
        problem = "processed " + std::to_string(r.stats.processed) + " of " +
                  std::to_string(applied.size() - skip) + " updates";
      else if (!run.remove_ok)
        problem = "remove_query returned false for a live handle";
      if (!problem.empty()) {
        out.push_back(make_divergence(c, removed, threads, 0,
                                      "multi[" + lane + "]: " + problem));
        return;
      }
      const std::pair<const Registration*, Totals> want[] = {
          {&removed, sequential_totals(c, removed, applied, skip, at)},
          {&added, sequential_totals(c, added, applied, at, applied.size())}};
      const std::size_t handles[] = {run.h_removed, run.h_added};
      for (std::uint32_t w = 0; w < 2; ++w) {
        const std::size_t h = handles[w];
        const Totals got_t{r.handle_positive[h], r.handle_negative[h]};
        const Totals& want_t = want[w].second;
        const bool ok = exact ? got_t.positive == want_t.positive &&
                                    got_t.negative == want_t.negative
                              : got_t.positive <= want_t.positive &&
                                    got_t.negative <= want_t.negative;
        if (!ok)
          out.push_back(make_divergence(c, *want[w].first, threads, w,
                                        totals_message(lane, h, got_t, want_t)));
      }
    };

    // Served cells at every thread count: each overload policy, with a
    // tiny ring and a slow consumer so kShed and kDegrade really fire, and
    // forced timeouts on a seeded quarter of the updates.
    struct Cell {
      service::OverloadPolicy policy;
      const char* lane;
      bool forced;
    };
    const Cell cells[] = {
        {service::OverloadPolicy::kBlock, "served/block", false},
        {service::OverloadPolicy::kDegrade, "served/degrade", false},
        {service::OverloadPolicy::kShed, "served/shed", false},
        {service::OverloadPolicy::kBlock, "served/forced-timeout", true}};
    std::vector<bool> forced(n);
    util::Rng forced_rng(c.seed ^ 0x7131e0ULL);
    for (std::size_t i = 0; i < n; ++i) forced[i] = forced_rng.chance(0.25);
    for (const unsigned threads : opts.thread_counts) {
      for (const Cell& cell : cells) {
        service::ServiceOptions sopts;
        sopts.record_applied_order = true;
        sopts.policy = cell.policy;
        service::FaultHooks hooks;
        if (cell.policy != service::OverloadPolicy::kBlock) {
          sopts.queue_capacity = 2;
          hooks.slow_consumer = [] {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          };
        }
        if (cell.forced)
          hooks.force_timeout = [&forced](std::uint64_t seq) {
            return seq < forced.size() && forced[seq];
          };
        graph::DataGraph g = c.graph;
        const ServedChurn run =
            serve_churn(c, g, removed, added, c.stream, mid, threads, sopts, hooks);
        check_served(run, cell.lane, threads, run.report.applied_order, 0, mid,
                     /*exact=*/!cell.forced);
        if (opts.stop_at_first && !out.empty()) return out;
      }
    }

    // Kill points: records 0..k durable, record k not applied. Recovery
    // replays the WAL; the catalogue comes back from the schedule.
    util::Rng rng(c.seed ^ 0x6b11c0ULL);
    for (std::uint32_t point = 0; point < kKillPoints && !opts.dir.empty(); ++point) {
      const std::size_t k = rng.bounded(n);
      const std::size_t resume = k + 1;
      const std::string lane = "served/kill@" + std::to_string(k);
      const std::string wal_path =
          opts.dir + "/multi_crash_" + std::to_string(point) + ".wal";
      graph::DataGraph expect = c.graph;
      {
        service::WalWriter w(wal_path, /*truncate=*/true);
        for (std::size_t i = 0; i <= k; ++i) {
          (void)w.append(c.stream[i]);
          expect.apply(c.stream[i]);
        }
        w.flush();
      }
      if (rng.chance(0.5)) {  // torn tail: a partial record k+1
        std::ofstream f(wal_path, std::ios::binary | std::ios::app);
        f.write("\x7f\x01\x02\x03\x04\x05\x06", 7);
      }
      service::RecoveredState rec = service::recover_state(c.graph, wal_path);
      const unsigned threads = opts.thread_counts.back();
      if (rec.next_seq != resume || !rec.graph.same_structure(expect)) {
        out.push_back(make_divergence(c, removed, threads, 0,
                                      "multi[" + lane + "]: recovery diverges "
                                      "from the WAL prefix"));
        if (opts.stop_at_first) return out;
        continue;
      }
      service::ServiceOptions sopts;
      sopts.wal_path = wal_path;
      sopts.wal_resume = true;
      sopts.wal_next_seq = resume;
      const std::size_t at = std::max(mid, resume);
      const ServedChurn run =
          serve_churn(c, rec.graph, removed, added,
                      std::span(c.stream).subspan(resume), at - resume, threads,
                      sopts, {});
      if (service::read_wal(wal_path).records.size() != n) {
        out.push_back(make_divergence(c, removed, threads, 0,
                                      "multi[" + lane + "]: resumed WAL does "
                                      "not hold the whole stream"));
      } else {
        check_served(run, lane, threads, c.stream, resume, at, true);
      }
      if (opts.stop_at_first && !out.empty()) return out;
    }
  }
  return out;
}

}  // namespace paracosm::verify
