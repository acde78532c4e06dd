// Hardware topology detection for the topology-aware runtime (DESIGN.md §10).
//
// The Chase–Lev pool used to treat all cores as interchangeable: victims were
// picked uniformly at random and batch shards stolen in ring order, so at
// 16+ threads on multi-socket (or multi-CCX) hardware the enumeration hot
// loop paid cross-node cache-line traffic for work that a sibling core could
// have supplied. This header provides the substrate for doing better:
//
//   * HwTopology — the package/node/core/SMT tree, parsed from
//     /sys/devices/system/cpu + /sys/devices/system/node, restricted to the
//     sched_getaffinity mask so taskset/cgroup-limited runs see only the CPUs
//     they may use. When sysfs is absent (macOS-shaped containers, CI
//     sandboxes) detection degrades to a flat single-node topology and every
//     consumer keeps working with today's behavior.
//   * assign_workers — deterministic worker→CPU placement: fill a node's
//     distinct cores before its SMT siblings, fill a node before moving to
//     the next, wrap modulo when oversubscribed.
//   * VictimTable — per-worker victim lists ordered by steal distance
//     (SMT sibling / same core → same node → remote) plus a dense distance
//     matrix that prices each steal. A flat machine's table has an empty
//     remote tier.
//
// Emulation: PARACOSM_TOPOLOGY="NxC" or "NxCxS" (nodes × cpus-per-node ×
// smt-ways) overrides detection; tests build emulated shapes directly
// (HwTopology::emulated), which is how the scheduler torture tests exercise
// 2-node victim ordering on any machine.
// Emulated topologies are never pinned (their CPU ids may not exist).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace paracosm::util {

/// One logical CPU's position in the machine tree. All ids are normalized to
/// dense 0-based indexes (sysfs package/node ids can be sparse).
struct TopoCpu {
  unsigned cpu = 0;      ///< OS cpu id (valid for pinning only when kSysfs)
  unsigned core = 0;     ///< global core index (unique across packages)
  unsigned package = 0;  ///< physical package / socket
  unsigned node = 0;     ///< NUMA node
};

enum class TopoSource : std::uint8_t {
  kFlat,      ///< no information: one node, one core per cpu
  kSysfs,     ///< parsed from a real sysfs tree
  kEmulated,  ///< synthetic (PARACOSM_TOPOLOGY or HwTopology::emulated)
};

[[nodiscard]] constexpr const char* topo_source_name(TopoSource s) noexcept {
  switch (s) {
    case TopoSource::kFlat: return "flat";
    case TopoSource::kSysfs: return "sysfs";
    case TopoSource::kEmulated: return "emulated";
  }
  return "?";
}

/// Distance a steal travels between two workers' CPU assignments.
/// Order matters: victim lists are sorted ascending by this enum.
enum class StealDistance : std::uint8_t {
  kLocal = 0,     ///< same core (SMT sibling) — shares L1/L2
  kSameNode = 1,  ///< same NUMA node / core complex — shares LLC + memory
  kRemote = 2,    ///< different node — cross-socket interconnect traffic
};

struct HwTopology {
  std::vector<TopoCpu> cpus;  ///< sorted by os cpu id; only allowed CPUs
  unsigned num_nodes = 1;
  unsigned num_packages = 1;
  unsigned num_cores = 0;
  bool smt = false;  ///< any core carries more than one logical CPU
  TopoSource source = TopoSource::kFlat;

  [[nodiscard]] unsigned num_cpus() const noexcept {
    return static_cast<unsigned>(cpus.size());
  }

  /// One node, one core per cpu — the degraded/no-information shape.
  [[nodiscard]] static HwTopology flat(unsigned n);

  /// Synthetic topology: `nodes` NUMA nodes × `cpus_per_node` logical CPUs,
  /// grouped into cores of `smt_ways` siblings. One package per node.
  [[nodiscard]] static HwTopology emulated(unsigned nodes, unsigned cpus_per_node,
                                           unsigned smt_ways = 1);

  /// Parse an emulation spec "NxC" or "NxCxS"; nullopt when malformed.
  [[nodiscard]] static std::optional<HwTopology> parse_spec(const std::string& spec);

  /// Parse a sysfs tree rooted at `sysfs_root` (i.e. the directory that
  /// contains devices/system/cpu). `allowed` restricts to those OS cpu ids
  /// (empty = no restriction). Returns a flat topology when the tree is
  /// missing or yields no usable CPU.
  [[nodiscard]] static HwTopology from_sysfs(const std::string& sysfs_root,
                                             std::span<const unsigned> allowed = {});

  /// Full detection: PARACOSM_TOPOLOGY env override → /sys restricted to the
  /// affinity mask → flat(affinity cpu count).
  [[nodiscard]] static HwTopology detect();

  /// detect() computed once per process. Safe to call from any thread.
  [[nodiscard]] static const HwTopology& cached();
};

/// CPUs this process may run on (sched_getaffinity), ascending. Falls back to
/// 0..hardware_concurrency-1 where the syscall is unavailable.
[[nodiscard]] std::vector<unsigned> affinity_cpus();

/// |affinity_cpus()|, never 0. The correct default worker count: honors
/// taskset/cgroup cpuset restrictions that hardware_concurrency ignores.
[[nodiscard]] unsigned affinity_cpu_count();

/// Distance between two CPU assignments (see StealDistance).
[[nodiscard]] StealDistance steal_distance(const TopoCpu& a, const TopoCpu& b) noexcept;

/// Deterministic worker→CPU assignment over `topo`: CPUs ordered by
/// (node, smt-rank within core, core) — so a node's distinct cores fill
/// before its SMT siblings and a whole node fills before the next — and
/// worker w takes the w-th CPU modulo the topology size.
[[nodiscard]] std::vector<TopoCpu> assign_workers(const HwTopology& topo,
                                                  unsigned workers);

struct Victim {
  std::uint16_t wid = 0;
  StealDistance dist = StealDistance::kSameNode;
};

/// Per-worker victim lists sorted by distance plus a dense distance matrix.
/// Built once per pool; read-only afterwards (safe to share across threads).
struct VictimTable {
  unsigned n = 0;
  std::vector<Victim> order;  ///< n*(n-1) entries, worker-major, distance-sorted
  std::vector<std::uint32_t> remote_begin;  ///< per worker: index of first
                                            ///< kRemote entry in its slice
                                            ///< (== n-1 when none)
  std::vector<std::uint8_t> dist;  ///< n*n matrix of StealDistance values

  [[nodiscard]] std::span<const Victim> of(unsigned wid) const noexcept {
    return {order.data() + static_cast<std::size_t>(wid) * (n - 1), n - 1};
  }
  [[nodiscard]] StealDistance distance(unsigned a, unsigned b) const noexcept {
    return static_cast<StealDistance>(dist[static_cast<std::size_t>(a) * n + b]);
  }
  [[nodiscard]] bool has_remote() const noexcept {
    for (unsigned w = 0; w < n; ++w)
      if (n > 1 && remote_begin[w] < n - 1) return true;
    return false;
  }
};

/// Victim lists for `assignment` (one entry per worker, from assign_workers).
/// Within a distance tier victims keep ascending wid order; the queue
/// randomizes its probe start within a tier at sweep time.
[[nodiscard]] VictimTable make_victim_table(std::span<const TopoCpu> assignment);

/// Pin the calling thread to OS cpu `cpu`. Returns false where unsupported
/// or when the kernel rejects the mask (cpu offline / outside the cgroup).
bool pin_current_thread(unsigned cpu);

}  // namespace paracosm::util
