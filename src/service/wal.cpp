#include "service/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/graph_io.hpp"
#include "util/checksum.hpp"

namespace paracosm::service {

namespace {

void put_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
[[nodiscard]] std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
[[nodiscard]] std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

using RecordBuf = std::array<unsigned char, kWalRecordBytes>;

/// Encode one record into the kWalRecordBytes at `p`.
void encode_record(std::uint64_t seq, const graph::GraphUpdate& upd,
                   unsigned char* p) noexcept {
  put_u64(p, seq);
  put_u32(p + 8, static_cast<std::uint32_t>(upd.op));
  put_u32(p + 12, upd.u);
  put_u32(p + 16, upd.v);
  put_u32(p + 20, upd.label);
  put_u64(p + 24, wal_checksum(seq, upd));
}

[[nodiscard]] std::uint64_t header_checksum(std::uint32_t version,
                                            std::uint32_t fingerprint) noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(kWalMagic));
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(kWalMagic >> 32));
  h = util::fnv1a_word(h, version);
  h = util::fnv1a_word(h, fingerprint);
  return h;
}

void encode_header(std::uint32_t fingerprint, RecordBuf& buf) noexcept {
  put_u64(buf.data(), kWalMagic);
  put_u32(buf.data() + 8, kWalVersion);
  put_u32(buf.data() + 12, fingerprint);
  put_u64(buf.data() + 16, 0);  // reserved
  put_u64(buf.data() + 24, header_checksum(kWalVersion, fingerprint));
}

/// Errors worth retrying: interrupted syscalls, a momentarily full pipe
/// buffer, and disk-full conditions that an operator (or log rotation) can
/// clear while the service keeps running.
[[nodiscard]] bool transient_errno(int err) noexcept {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK || err == ENOSPC;
}

}  // namespace

std::uint64_t wal_checksum(std::uint64_t seq,
                           const graph::GraphUpdate& upd) noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(seq));
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(seq >> 32));
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(upd.op));
  h = util::fnv1a_word(h, upd.u);
  h = util::fnv1a_word(h, upd.v);
  h = util::fnv1a_word(h, upd.label);
  return h;
}

std::uint32_t graph_fingerprint(const graph::DataGraph& g) noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_word(h, g.vertex_capacity());
  h = util::fnv1a_word(h, static_cast<std::uint32_t>(g.num_edges()));
  for (graph::VertexId v = 0; v < g.vertex_capacity(); ++v) {
    if (!g.has_vertex(v)) continue;
    h = util::fnv1a_word(h, v);
    h = util::fnv1a_word(h, g.label(v));
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// ---------------------------------------------------------------- WalWriter

WalWriter::WalWriter(const std::string& path, bool truncate,
                     std::uint64_t next_seq, std::uint32_t fingerprint)
    : path_(path), next_seq_(next_seq) {
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0) | O_CLOEXEC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0)
    throw std::runtime_error("wal: cannot open '" + path +
                             "': " + std::strerror(errno));
  if (truncate) {
    RecordBuf buf;
    encode_header(fingerprint, buf);
    write_all(buf.data(), buf.size());
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool WalWriter::fault_fires() noexcept {
  if (fault_remaining_ <= 0) return false;
  --fault_remaining_;
  errno = fault_errno_;
  return true;
}

void WalWriter::write_all(const unsigned char* data, std::size_t len) {
  // Bounded retry with capped exponential backoff: EINTR retries immediately,
  // EAGAIN/ENOSPC back off 1ms, 2ms, ... capped at 50ms; after kMaxAttempts
  // consecutive failures the error is permanent and the update fails loudly.
  constexpr int kMaxAttempts = 8;
  constexpr std::int64_t kMaxBackoffMs = 50;
  std::size_t off = 0;
  int attempt = 0;
  while (off < len) {
    ssize_t n;
    if (fault_fires()) {
      n = -1;
    } else {
      n = ::write(fd_, data + off, len - off);
    }
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      attempt = 0;
      continue;
    }
    const int err = errno;
    if (!transient_errno(err) || ++attempt >= kMaxAttempts)
      throw std::runtime_error("wal: write failed on '" + path_ +
                               "': " + std::strerror(err));
    ++retries_;
    if (err != EINTR) {
      const std::int64_t ms =
          std::min<std::int64_t>(std::int64_t{1} << (attempt - 1), kMaxBackoffMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
}

std::uint64_t WalWriter::append(std::span<const graph::GraphUpdate> run) {
  const std::uint64_t first = next_seq_;
  buf_.resize(run.size() * kWalRecordBytes);
  for (std::size_t i = 0; i < run.size(); ++i)
    encode_record(first + i, run[i], buf_.data() + i * kWalRecordBytes);
  write_all(buf_.data(), buf_.size());
  next_seq_ += run.size();
  return first;
}

void WalWriter::flush() {
  constexpr int kMaxAttempts = 8;
  constexpr std::int64_t kMaxBackoffMs = 50;
  for (int attempt = 0;; ++attempt) {
    int rc;
    if (fault_fires()) {
      rc = -1;
    } else {
#if defined(__APPLE__)
      rc = ::fsync(fd_);
#else
      rc = ::fdatasync(fd_);
#endif
    }
    if (rc == 0) return;
    const int err = errno;
    if (!transient_errno(err) || attempt + 1 >= kMaxAttempts)
      throw std::runtime_error("wal: fsync failed on '" + path_ +
                               "': " + std::strerror(err));
    ++retries_;
    if (err != EINTR) {
      const std::int64_t ms =
          std::min<std::int64_t>(std::int64_t{1} << attempt, kMaxBackoffMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
}

// ------------------------------------------------------------------ readers

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // absent file == empty log

  RecordBuf buf;
  std::uint64_t expect_seq = 0;
  bool have_seq = false;
  bool first = true;
  for (;;) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    const auto got = in.gcount();
    if (got == 0 && in.eof()) break;  // clean end
    if (got != static_cast<std::streamsize>(kWalRecordBytes)) {
      result.torn_tail = true;  // short read: crash mid-append
      break;
    }
    if (first) {
      first = false;
      if (get_u64(buf.data()) == kWalMagic) {
        // v2 identity header. A corrupt header poisons the whole file — the
        // fingerprint can no longer be trusted, so nothing after it can.
        const std::uint32_t version = get_u32(buf.data() + 8);
        const std::uint32_t fp = get_u32(buf.data() + 12);
        if (get_u64(buf.data() + 24) != header_checksum(version, fp)) {
          result.torn_tail = true;
          break;
        }
        result.has_header = true;
        result.fingerprint = fp;
        result.valid_bytes += kWalHeaderBytes;
        continue;
      }
      // No magic: a headerless record stream — fall through and parse this
      // block as record 0.
    }
    WalRecord rec;
    rec.seq = get_u64(buf.data());
    const std::uint32_t op = get_u32(buf.data() + 8);
    rec.upd.op = static_cast<graph::UpdateOp>(op);
    rec.upd.u = get_u32(buf.data() + 12);
    rec.upd.v = get_u32(buf.data() + 16);
    rec.upd.label = get_u32(buf.data() + 20);
    const std::uint64_t stored = get_u64(buf.data() + 24);
    if (op > static_cast<std::uint32_t>(graph::UpdateOp::kRemoveVertex) ||
        stored != wal_checksum(rec.seq, rec.upd) ||
        (have_seq && rec.seq != expect_seq)) {
      result.torn_tail = true;  // bit rot or a torn rewrite
      break;
    }
    have_seq = true;
    expect_seq = rec.seq + 1;
    result.records.push_back(rec);
    result.valid_bytes += kWalRecordBytes;
  }
  return result;
}

void truncate_wal(const std::string& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw std::runtime_error("wal: cannot truncate '" + path +
                             "': " + ec.message());
}

void write_snapshot(const std::string& path, const graph::DataGraph& g,
                    const SnapshotMeta& meta) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("snapshot: cannot open '" + tmp + "'");
    out << "# paracosm-snapshot 1 seq=" << meta.seq << " ads=" << std::hex
        << meta.ads_checksum << std::dec << " alg=" << meta.algorithm << "\n";
    graph::save_data_graph(g, out);
    out.flush();
    if (!out)
      throw std::runtime_error("snapshot: write failed on '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("snapshot: rename to '" + path +
                             "' failed: " + ec.message());
}

std::optional<Snapshot> read_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;

  std::string header;
  if (!std::getline(in, header)) return std::nullopt;
  std::istringstream hs(header);
  std::string hash, tag;
  int version = 0;
  hs >> hash >> tag >> version;
  if (hash != "#" || tag != "paracosm-snapshot" || version != 1)
    return std::nullopt;

  Snapshot snap;
  bool have_seq = false, have_ads = false;
  std::string field;
  while (hs >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    try {
      if (key == "seq") {
        snap.meta.seq = std::stoull(value);
        have_seq = true;
      } else if (key == "ads") {
        snap.meta.ads_checksum = std::stoull(value, nullptr, 16);
        have_ads = true;
      } else if (key == "alg") {
        snap.meta.algorithm = value;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_seq || !have_ads) return std::nullopt;

  try {
    snap.graph = graph::load_data_graph(in);
  } catch (const graph::ParseException&) {
    return std::nullopt;  // truncated/corrupt body: fall back to base + WAL
  }
  return snap;
}

RecoveredState recover_state(const graph::DataGraph& base,
                             const std::string& wal_path,
                             const std::string& snapshot_path) {
  RecoveredState state;
  std::uint64_t replay_from = 0;

  WalReadResult wal = read_wal(wal_path);
  if (wal.has_header && wal.fingerprint != 0) {
    const std::uint32_t expect = graph_fingerprint(base);
    if (wal.fingerprint != expect) {
      std::ostringstream msg;
      msg << "wal: graph fingerprint mismatch on '" << wal_path
          << "' — the log records fingerprint 0x" << std::hex << wal.fingerprint
          << " but the recovery base has 0x" << expect
          << ": this WAL belongs to a different graph";
      throw std::runtime_error(msg.str());
    }
  }

  if (!snapshot_path.empty()) {
    if (auto snap = read_snapshot(snapshot_path)) {
      state.graph = std::move(snap->graph);
      state.snapshot = snap->meta;
      state.used_snapshot = true;
      replay_from = snap->meta.seq;
    }
  }
  if (!state.used_snapshot) state.graph = base;

  // A snapshot "current through seq S" implies the WAL holds every record
  // below S (records are durable before they are applied, and the WAL is only
  // ever truncated at a torn tail). A snapshot ahead of the WAL tail means
  // records were lost — the state between tail and snapshot could be anything.
  const std::uint64_t wal_end =
      wal.records.empty() ? 0 : wal.records.back().seq + 1;
  if (state.used_snapshot && replay_from > wal_end) {
    std::ostringstream msg;
    msg << "recovery: snapshot '" << snapshot_path << "' is current through seq "
        << replay_from << " but the WAL '" << wal_path << "' ends at seq "
        << wal_end << " — " << (replay_from - wal_end)
        << " record(s) are missing; refusing to recover from disagreeing "
           "durability state";
    throw std::runtime_error(msg.str());
  }

  if (wal.torn_tail) {
    truncate_wal(wal_path, wal.valid_bytes);
    state.torn_tail_truncated = true;
  }
  state.next_seq = replay_from;
  for (const WalRecord& rec : wal.records) {
    state.next_seq = rec.seq + 1;
    if (rec.seq < replay_from) continue;  // already inside the snapshot
    // Idempotent redo: a record whose effect survived the crash (append
    // happened, apply happened, then crash) replays as a no-op.
    state.graph.apply(rec.upd);
    ++state.replayed;
  }
  return state;
}

}  // namespace paracosm::service
