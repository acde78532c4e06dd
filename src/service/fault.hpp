// Fault-injection hooks for the service layer (ISSUE 4).
//
// The hooks are plain std::functions threaded into StreamService so the
// fuzzer and the crash-recovery tests can trigger the three failure modes
// the overload/durability design exists to survive — at precise, seeded
// points rather than by luck:
//
//   * after_wal_append — runs per record between its run's WAL flush and
//     that update's apply: the redo window a crash test kills the process
//     inside (std::_Exit), proving recovery replays the durable-but-unapplied
//     rest of the run.
//   * force_timeout    — marks an update's search as over-budget the moment
//     it is armed (the token's fresh epoch is cancelled immediately), giving
//     a deterministic "watchdog fired" outcome without racing real time.
//   * slow_consumer    — artificial delay at the top of the consumer loop,
//     backing the ring up so the overload policies actually engage.
#pragma once

#include <cstdint>
#include <functional>

namespace paracosm::service {

struct FaultHooks {
  /// Called with a durable record's seq just before its update is applied;
  /// the whole run holding it is durable by then.
  std::function<void(std::uint64_t seq)> after_wal_append;
  /// Return true to cancel the search for record `seq` deterministically.
  std::function<bool(std::uint64_t seq)> force_timeout;
  /// Called once per ring item as a run takes it, before the run is
  /// processed.
  std::function<void()> slow_consumer;
};

}  // namespace paracosm::service
