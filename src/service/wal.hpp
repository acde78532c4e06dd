// Durability for the service layer (DESIGN.md §7.3): an append-only
// write-ahead log of admitted updates, periodic full snapshots, and crash
// recovery that replays the WAL suffix on top of the newest snapshot.
//
// WAL format — one optional 32-byte file header followed by fixed 32-byte
// little-endian records:
//
//   header:  u64 magic "PCOSMWAL" | u32 version | u32 graph_fp | u64 0 | u64 checksum
//   record:  u64 seq | u32 op | u32 u | u32 v | u32 label | u64 checksum
//
// The checksums are FNV-1a (util/checksum.hpp) over the preceding fields, so
// a torn tail — the partial or corrupted last record a crash mid-append
// leaves behind — is detected by a short read, a checksum mismatch, or a
// non-monotonic sequence number. Recovery truncates the file back to the last
// good record; everything before it is trusted. The header's `graph_fp` is an
// *identity* check (fingerprint of the graph the log was started from; every
// fresh StreamService log carries one): replaying a WAL onto the wrong base
// graph is rejected with a clear error instead of silently corrupting state.
// Headerless files and headers with fingerprint 0 (older service logs, tests
// that build raw record streams) read fine; identity is simply unchecked for
// them.
//
// Records are appended *before* the update is applied (redo semantics): a
// crash between append and apply replays that update on recovery — the
// service appends a whole run and flushes it before applying any of it, so a
// crash mid-run replays the run's unapplied rest — and replay
// is idempotent because DataGraph::apply treats an already-applied update as
// a no-op. The writer sits on a raw POSIX fd so the durability point is a
// real fdatasync, and transient append/sync failures (EINTR, EAGAIN, an
// ENOSPC that clears) are retried with capped backoff instead of failing the
// admitted update outright — every retry is counted (ServiceStats::
// wal_retries) so flaky storage shows up in the metrics, not in lost updates.
//
// Snapshot format — a text file readable by graph_io with one header line:
//
//   # paracosm-snapshot 1 seq=<next_seq> ads=<hex> alg=<name>
//
// `seq` is the WAL sequence the snapshot is current through (the first record
// that still needs replay); `ads` is the algorithm's ADS checksum at that
// point, cross-checked after recovery by a fresh attach. A service serving
// several registrations writes them in handle order: `alg` lists every
// algorithm name, comma-separated, and `ads` is the first checksum with each
// later one folded in by FNV-1a (low 32 bits, then high); one registration
// writes exactly its own name and checksum. The catalogue itself is not
// recorded. Snapshots are written to a temp file and renamed into place, so
// a crash mid-snapshot never destroys the previous one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/data_graph.hpp"
#include "graph/types.hpp"

namespace paracosm::service {

inline constexpr std::size_t kWalRecordBytes = 32;
inline constexpr std::size_t kWalHeaderBytes = 32;
inline constexpr std::uint64_t kWalMagic = 0x4c41574d534f4350ULL;  // "PCOSMWAL"
inline constexpr std::uint32_t kWalVersion = 2;

struct WalRecord {
  std::uint64_t seq = 0;
  graph::GraphUpdate upd;
};

/// FNV-1a over (seq, op, u, v, label) — the first 24 bytes of the record.
[[nodiscard]] std::uint64_t wal_checksum(std::uint64_t seq,
                                         const graph::GraphUpdate& upd) noexcept;

/// Identity fingerprint of a graph: FNV-1a over the alive (id, label) pairs
/// plus vertex/edge counts. Cheap (O(V)), order-stable, and computed at WAL
/// creation so recovery can refuse a log that belongs to a different graph.
/// This is an identity check, not an integrity check — two graphs that differ
/// anywhere in their vertex sets get different fingerprints with 2^-32 odds.
[[nodiscard]] std::uint32_t graph_fingerprint(const graph::DataGraph& g) noexcept;

/// Append-side handle. Not thread-safe: the service's single consumer is the
/// only writer (append-before-apply happens on the consumer thread).
class WalWriter {
 public:
  /// `truncate == true` starts a fresh log (header carrying `fingerprint`,
  /// 0 = identity unchecked); otherwise appends to an existing one whose torn
  /// tail (if any) has already been cut by recover_state(), continuing at
  /// `next_seq`. Throws std::runtime_error if the file cannot be opened.
  WalWriter(const std::string& path, bool truncate, std::uint64_t next_seq = 0,
            std::uint32_t fingerprint = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append a run of records, consecutive seqs, in one write; returns the
  /// first record's seq. Transient write failures are retried with capped
  /// backoff (see file comment); a persistent failure throws
  /// std::runtime_error.
  std::uint64_t append(std::span<const graph::GraphUpdate> run);
  std::uint64_t append(const graph::GraphUpdate& upd) {
    return append(std::span<const graph::GraphUpdate>(&upd, 1));
  }

  /// Make appended records durable (fdatasync) — the durability point the
  /// crash-recovery tests kill against; the service calls it once per run.
  /// Retries transient failures.
  void flush();

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Transient write/sync failures absorbed by the retry loop so far.
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

  /// Test hook: fail the next `n` write/fdatasync syscalls with errno `err`
  /// before letting them through, exercising the retry path deterministically.
  void inject_transient_failures(int n, int err) noexcept {
    fault_remaining_ = n;
    fault_errno_ = err;
  }

 private:
  void write_all(const unsigned char* data, std::size_t len);
  [[nodiscard]] bool fault_fires() noexcept;

  std::string path_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t retries_ = 0;
  std::vector<unsigned char> buf_;  ///< encoded run, reused across appends
  int fault_remaining_ = 0;
  int fault_errno_ = 0;
};

struct WalReadResult {
  std::vector<WalRecord> records;  ///< every record up to the first bad one
  bool torn_tail = false;          ///< trailing bytes failed validation
  std::uint64_t valid_bytes = 0;   ///< file prefix covered by header+records
  bool has_header = false;         ///< file carries a v2 identity header
  std::uint32_t fingerprint = 0;   ///< header graph fingerprint (0 = none)
};

/// Scan a WAL file, validating length, checksum and seq monotonicity of each
/// record. Never throws on corrupt data — corruption is the expected input.
/// A missing file reads as empty.
[[nodiscard]] WalReadResult read_wal(const std::string& path);

/// Cut a torn tail: shrink `path` to `valid_bytes` (from read_wal).
void truncate_wal(const std::string& path, std::uint64_t valid_bytes);

struct SnapshotMeta {
  std::uint64_t seq = 0;           ///< WAL seq the snapshot is current through
  std::uint64_t ads_checksum = 0;  ///< ADS checksum at that point (see above)
  std::string algorithm;           ///< algorithm(s) the checksum belongs to
};

struct Snapshot {
  SnapshotMeta meta;
  graph::DataGraph graph;
};

/// Atomically (write-temp + rename) persist the graph with its metadata.
void write_snapshot(const std::string& path, const graph::DataGraph& g,
                    const SnapshotMeta& meta);

/// Load a snapshot; nullopt if the file is absent or its header/body is
/// malformed (recovery then falls back to the initial graph + full WAL).
[[nodiscard]] std::optional<Snapshot> read_snapshot(const std::string& path);

struct RecoveredState {
  graph::DataGraph graph;        ///< post-replay graph
  std::uint64_t next_seq = 0;    ///< seq the resumed WAL should continue at
  std::uint64_t replayed = 0;    ///< WAL records re-applied
  bool torn_tail_truncated = false;
  bool used_snapshot = false;
  std::optional<SnapshotMeta> snapshot;  ///< header of the snapshot used
};

/// Crash recovery: start from the newest snapshot (when `snapshot_path` is
/// non-empty and readable), else from `base` — the initial graph the service
/// was started with — and replay every WAL record with seq >= the base's
/// sequence. A torn WAL tail is truncated in place so a resumed WalWriter
/// can append cleanly. The ADS is NOT recovered from disk: callers re-attach
/// the algorithm to the recovered graph (the offline stage), then verify the
/// snapshot's stored `ads_checksum` against a fresh attach on the snapshot
/// graph when they want the cross-check.
///
/// Two disagreement classes are *rejected* (std::runtime_error) instead of
/// silently producing a wrong graph:
///   * identity — the WAL header's graph fingerprint is non-zero and does not
///     match graph_fingerprint(base): this WAL belongs to a different
///     graph/stream.
///   * snapshot ahead of the WAL tail — the snapshot claims to be current
///     through a seq the WAL never reached: records were lost, the suffix
///     between them is unrecoverable.
/// Replaying a WAL suffix that duplicates snapshot state is NOT an error —
/// redo replay is idempotent by design.
[[nodiscard]] RecoveredState recover_state(const graph::DataGraph& base,
                                           const std::string& wal_path,
                                           const std::string& snapshot_path = {});

}  // namespace paracosm::service
