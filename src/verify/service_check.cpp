#include "verify/service_check.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "paracosm/paracosm.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "util/rng.hpp"
#include "verify/oracle_mirror.hpp"

namespace paracosm::verify {

namespace {

engine::Config service_engine_config(unsigned threads) {
  engine::Config cfg;
  cfg.threads = threads;
  cfg.split_depth = 3;
  cfg.inner_parallelism = threads > 1;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  return cfg;
}

Divergence make_div(const FuzzCase& c, const ServiceCheckOptions& opts,
                    std::string message) {
  Divergence d;
  d.seed = c.seed;
  d.algorithm = std::string(opts.algorithm);
  d.lane = Lane::kInner;
  d.threads = opts.threads;
  d.query_index = 0;
  d.message = "service/" + std::string(service_fault_name(opts.fault)) + ": " +
              std::move(message);
  return d;
}

[[nodiscard]] std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                         std::uint32_t>
update_key(const graph::GraphUpdate& u) noexcept {
  return {static_cast<std::uint8_t>(u.op), u.u, u.v, u.label};
}

/// Multiset equality of two update sequences (order-insensitive).
[[nodiscard]] bool same_updates(std::vector<graph::GraphUpdate> a,
                                std::vector<graph::GraphUpdate> b) {
  if (a.size() != b.size()) return false;
  const auto less = [](const graph::GraphUpdate& x, const graph::GraphUpdate& y) {
    return update_key(x) < update_key(y);
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return a == b;
}

/// Fresh-attach ADS checksum on `g` — the recovery/degradation cross-check:
/// whatever the run did, the surviving ADS must equal one rebuilt offline.
[[nodiscard]] std::uint64_t fresh_ads_checksum(std::string_view algorithm,
                                               const graph::QueryGraph& q,
                                               const graph::DataGraph& g) {
  const auto alg = csm::make_algorithm(algorithm);
  alg->attach(q, g);
  return alg->ads_checksum();
}

/// Run the whole stream through a StreamService and reconcile the report
/// against an oracle replay of the *effective* applied order. `expect_exact`
/// demands equal totals; the forced-timeout lane relaxes it to ≤ (degraded
/// searches only ever lose matches, never invent them).
std::vector<Divergence> run_service_lane(const FuzzCase& c,
                                         const ServiceCheckOptions& opts,
                                         const service::ServiceOptions& sopts,
                                         const service::FaultHooks& hooks,
                                         bool expect_exact,
                                         bool expect_order_preserved) {
  std::vector<Divergence> out;
  const auto alg = csm::make_algorithm(opts.algorithm);
  if (!alg) return out;
  const graph::QueryGraph& q = c.queries.front();

  graph::DataGraph g = c.graph;
  std::unique_ptr<engine::ParaCosm> pc;
  try {
    pc = std::make_unique<engine::ParaCosm>(*alg, q, g,
                                            service_engine_config(opts.threads));
  } catch (const std::invalid_argument&) {
    return out;  // query outside the algorithm's domain
  }

  service::ServiceReport report;
  {
    service::StreamService svc(*pc, sopts, hooks);
    for (const graph::GraphUpdate& upd : c.stream) (void)svc.submit(upd);
    report = svc.finish();
  }

  if (!report.error.empty()) {
    out.push_back(make_div(c, opts, "consumer error: " + report.error));
    return out;
  }
  if (report.stats.processed != c.stream.size()) {
    out.push_back(make_div(
        c, opts,
        "processed " + std::to_string(report.stats.processed) + " of " +
            std::to_string(c.stream.size()) + " updates (drops are forbidden)"));
    return out;
  }
  if (!same_updates(report.applied_order, c.stream)) {
    out.push_back(make_div(c, opts,
                           "applied order is not a permutation of the stream"));
    return out;
  }
  if (expect_order_preserved && report.applied_order != c.stream) {
    out.push_back(make_div(c, opts, "applied order was unexpectedly reordered"));
    return out;
  }

  // Ground truth over the order the service actually applied (shed replays
  // legally reorder; the oracle must judge what happened, not what was sent).
  const bool el = alg->uses_edge_labels();
  const OracleTrace trace =
      build_trace(q, c.graph, report.applied_order, el, /*strict=*/false);

  if (expect_exact) {
    if (report.positive != trace.total_positive ||
        report.negative != trace.total_negative) {
      std::ostringstream os;
      os << "totals diverge: got +" << report.positive << "/-"
         << report.negative << ", oracle +" << trace.total_positive << "/-"
         << trace.total_negative;
      out.push_back(make_div(c, opts, os.str()));
    }
  } else {
    if (report.positive > trace.total_positive ||
        report.negative > trace.total_negative) {
      std::ostringstream os;
      os << "degraded run invented matches: got +" << report.positive << "/-"
         << report.negative << ", oracle +" << trace.total_positive << "/-"
         << trace.total_negative;
      out.push_back(make_div(c, opts, os.str()));
    }
  }
  if (!g.same_structure(trace.final_graph)) {
    out.push_back(make_div(c, opts,
                           "final graph diverges from the oracle mirror"));
  }
  if (alg->ads_checksum() != fresh_ads_checksum(opts.algorithm, q, g)) {
    out.push_back(make_div(
        c, opts, "surviving ADS checksum differs from a fresh attach"));
  }
  return out;
}

std::vector<Divergence> check_crash_recovery(const FuzzCase& c,
                                             const ServiceCheckOptions& opts) {
  std::vector<Divergence> out;
  if (opts.dir.empty() || c.stream.empty()) return out;
  const auto alg = csm::make_algorithm(opts.algorithm);
  if (!alg) return out;
  const graph::QueryGraph& q = c.queries.front();
  const bool el = alg->uses_edge_labels();

  util::Rng rng(c.seed ^ 0xc4a5ffULL);
  for (std::uint32_t point = 0; point < opts.crash_points; ++point) {
    const std::uint32_t k =
        static_cast<std::uint32_t>(rng.bounded(c.stream.size()));
    // The rest of k's run: the service makes a whole run (up to 64 records)
    // durable before applying any of it, so a kill before update k can leave
    // up to 63 later records durable too.
    const std::uint32_t last = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(k + rng.bounded(64), c.stream.size() - 1));
    const std::string wal_path =
        opts.dir + "/crash_" + std::to_string(point) + ".wal";
    const std::string snap_path =
        opts.dir + "/crash_" + std::to_string(point) + ".snap";

    // Build the crashed-process disk image: records 0..last durable, but the
    // engine only applied 0..k-1 — the append-before-apply redo window.
    graph::DataGraph expect = c.graph;
    {
      service::WalWriter w(wal_path, /*truncate=*/true);
      for (std::uint32_t i = 0; i <= last; ++i) {
        (void)w.append(c.stream[i]);
        expect.apply(c.stream[i]);  // ground truth includes records k..last
      }
      w.flush();
    }
    const bool torn = rng.chance(0.5);
    if (torn) {
      // Crash mid-append of the next run: a partial record past the good tail.
      std::ofstream f(wal_path, std::ios::binary | std::ios::app);
      const char junk[13] = {0x7f, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                             0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c};
      f.write(junk, sizeof junk);
    }

    const bool snap = k > 0 && rng.chance(0.5);
    if (snap) {
      const auto s = static_cast<std::uint32_t>(rng.bounded(k));
      graph::DataGraph snap_graph = c.graph;
      for (std::uint32_t i = 0; i < s; ++i) snap_graph.apply(c.stream[i]);
      service::write_snapshot(
          snap_path, snap_graph,
          {s, fresh_ads_checksum(opts.algorithm, q, snap_graph),
           std::string(opts.algorithm)});
    }

    service::RecoveredState rec =
        service::recover_state(c.graph, wal_path, snap ? snap_path : "");

    std::ostringstream at;
    at << "kill point " << point << " (update " << k << ", durable through "
       << last << (torn ? ", torn tail" : "") << (snap ? ", snapshot" : "")
       << "): ";
    if (torn && !rec.torn_tail_truncated) {
      out.push_back(make_div(c, opts, at.str() + "torn tail not detected"));
      continue;
    }
    if (rec.next_seq != last + 1) {
      out.push_back(make_div(c, opts,
                             at.str() + "recovered next_seq " +
                                 std::to_string(rec.next_seq) + ", want " +
                                 std::to_string(last + 1)));
      continue;
    }
    if (snap != rec.used_snapshot) {
      out.push_back(make_div(c, opts, at.str() + "snapshot use mismatch"));
      continue;
    }
    if (!rec.graph.same_structure(expect)) {
      out.push_back(make_div(
          c, opts, at.str() + "recovered graph diverges from the prefix"));
      continue;
    }
    if (snap) {
      // Cross-check the stored ADS checksum against a fresh attach on the
      // snapshot body as read back from disk.
      const auto reread = service::read_snapshot(snap_path);
      if (!reread ||
          reread->meta.ads_checksum !=
              fresh_ads_checksum(opts.algorithm, q, reread->graph)) {
        out.push_back(make_div(
            c, opts, at.str() + "snapshot ADS checksum cross-check failed"));
        continue;
      }
    }

    // Resume: re-run the offline stage on the recovered graph and finish the
    // stream; the continuation must be oracle-exact.
    const std::vector<graph::GraphUpdate> suffix(c.stream.begin() + last + 1,
                                                 c.stream.end());
    const OracleTrace tail =
        build_trace(q, rec.graph, suffix, el, /*strict=*/false);
    const auto alg2 = csm::make_algorithm(opts.algorithm);
    graph::DataGraph g2 = rec.graph;
    std::unique_ptr<engine::ParaCosm> pc;
    try {
      pc = std::make_unique<engine::ParaCosm>(
          *alg2, q, g2, service_engine_config(opts.threads));
    } catch (const std::invalid_argument&) {
      continue;
    }
    std::uint64_t pos = 0, neg = 0;
    for (const graph::GraphUpdate& upd : suffix) {
      const csm::UpdateOutcome o = pc->process(upd);
      pos += o.positive;
      neg += o.negative;
    }
    if (pos != tail.total_positive || neg != tail.total_negative ||
        !g2.same_structure(tail.final_graph)) {
      out.push_back(make_div(
          c, opts, at.str() + "post-recovery continuation diverges"));
    }
  }
  return out;
}

}  // namespace

std::string_view service_fault_name(ServiceFault f) noexcept {
  switch (f) {
    case ServiceFault::kNone: return "none";
    case ServiceFault::kCrashRecovery: return "crash-recovery";
    case ServiceFault::kForcedTimeout: return "forced-timeout";
    case ServiceFault::kShedIngest: return "shed-ingest";
    case ServiceFault::kDegradeIngest: return "degrade-ingest";
  }
  return "?";
}

std::vector<ServiceFault> all_service_faults() {
  return {ServiceFault::kNone, ServiceFault::kCrashRecovery,
          ServiceFault::kForcedTimeout, ServiceFault::kShedIngest,
          ServiceFault::kDegradeIngest};
}

std::vector<Divergence> check_service_case(const FuzzCase& c,
                                           const ServiceCheckOptions& opts) {
  if (c.queries.empty()) return {};

  service::ServiceOptions sopts;
  sopts.record_applied_order = true;
  service::FaultHooks hooks;

  switch (opts.fault) {
    case ServiceFault::kNone:
      sopts.queue_capacity = 1024;
      sopts.policy = service::OverloadPolicy::kBlock;
      return run_service_lane(c, opts, sopts, hooks, /*expect_exact=*/true,
                              /*expect_order_preserved=*/true);

    case ServiceFault::kCrashRecovery:
      return check_crash_recovery(c, opts);

    case ServiceFault::kForcedTimeout: {
      sopts.queue_capacity = 1024;
      sopts.policy = service::OverloadPolicy::kBlock;
      // Seeded forced-timeout slice; captured by value so the hook is pure.
      std::vector<bool> forced(c.stream.size());
      util::Rng rng(c.seed ^ 0x7131e0ULL);
      for (std::size_t i = 0; i < forced.size(); ++i)
        forced[i] = rng.chance(opts.timeout_rate);
      hooks.force_timeout = [forced](std::uint64_t seq) {
        return seq < forced.size() && forced[seq];
      };
      return run_service_lane(c, opts, sopts, hooks, /*expect_exact=*/false,
                              /*expect_order_preserved=*/true);
    }

    case ServiceFault::kShedIngest: {
      sopts.queue_capacity = opts.queue_capacity;
      sopts.policy = service::OverloadPolicy::kShed;
      hooks.slow_consumer = [us = opts.slow_consumer_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      };
      return run_service_lane(c, opts, sopts, hooks, /*expect_exact=*/true,
                              /*expect_order_preserved=*/false);
    }

    case ServiceFault::kDegradeIngest: {
      sopts.queue_capacity = opts.queue_capacity;
      sopts.policy = service::OverloadPolicy::kDegrade;
      hooks.slow_consumer = [us = opts.slow_consumer_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      };
      // Degrade admits in order (blocking) and must stay count-exact.
      return run_service_lane(c, opts, sopts, hooks, /*expect_exact=*/true,
                              /*expect_order_preserved=*/true);
    }
  }
  return {};
}

}  // namespace paracosm::verify
