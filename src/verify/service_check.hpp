// Differential verification of the service layer's fault matrix (ISSUE 4):
// every resilience mechanism — crash recovery, deadline degradation, shed /
// degrade overload handling — must leave state (and, where applicable,
// counts) equal to OracleMirror ground truth.
//
// The lanes:
//
//   kNone          — plain service run (block policy): totals and final graph
//                    must be oracle-exact. Baseline sanity for the pipeline.
//   kCrashRecovery — for N seeded kill points k: build a WAL whose records
//                    k..k+t (t random in 0..63, the rest of k's run) are
//                    durable but NOT applied (the crash window), half the
//                    time with a torn trailing half-record and/or a mid-run
//                    snapshot; recover_state must reproduce the prefix graph
//                    through k+t exactly and resume after it (torn tail
//                    truncated, snapshot cross-checked via fresh attach), and
//                    the engine must then finish the remaining stream
//                    oracle-exactly.
//   kForcedTimeout — a seeded ≥`timeout_rate` slice of updates is forced
//                    over-budget. Degraded counts may be partial (only ever
//                    missing matches, never inventing them), but the final
//                    graph and a fresh-attach ADS checksum must be exact.
//   kShedIngest    — tiny ring + slow consumer at full submit rate: sheds
//                    must be delayed, never dropped — the effective applied
//                    order is a permutation of the stream and totals/final
//                    graph match an oracle replay of exactly that order.
//   kDegradeIngest — same pressure under kDegrade: count-only demotion must
//                    keep totals and state exact (only delivery is skipped).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/fuzzer.hpp"

namespace paracosm::verify {

enum class ServiceFault : std::uint8_t {
  kNone,
  kCrashRecovery,
  kForcedTimeout,
  kShedIngest,
  kDegradeIngest,
};

[[nodiscard]] std::string_view service_fault_name(ServiceFault f) noexcept;

/// All lanes, in matrix order.
[[nodiscard]] std::vector<ServiceFault> all_service_faults();

struct ServiceCheckOptions {
  std::string_view algorithm = "graphflow";
  unsigned threads = 4;
  ServiceFault fault = ServiceFault::kNone;

  std::uint32_t crash_points = 5;   ///< kCrashRecovery: seeded kill points
  double timeout_rate = 0.15;       ///< kForcedTimeout: forced share (≥10%)
  std::size_t queue_capacity = 4;   ///< overload lanes: tiny ring
  std::uint32_t slow_consumer_us = 200;  ///< overload lanes: per-item delay

  /// Scratch directory for WAL/snapshot files (kCrashRecovery); empty skips
  /// the on-disk half of that lane.
  std::string dir;
};

/// Run one service-fault lane over `c` (query 0). Returns divergences in the
/// fuzzer's vocabulary so paracosm_fuzz prints/persists them uniformly.
[[nodiscard]] std::vector<Divergence> check_service_case(
    const FuzzCase& c, const ServiceCheckOptions& opts);

}  // namespace paracosm::verify
