// Hardware topology detection for worker placement and pinning.
//
//   * HwTopology — the package/core/SMT tree, parsed from
//     /sys/devices/system/cpu, restricted to the sched_getaffinity mask so
//     taskset/cgroup-limited runs see only the CPUs they may use. When sysfs
//     is absent (non-Linux hosts, containers without /sys) detection degrades
//     to a flat topology and every consumer keeps working.
//   * assign_workers — deterministic worker→CPU placement: distinct cores
//     before their SMT siblings, wrapping modulo when oversubscribed.
//   * pin_current_thread — the affinity call a pinned pool worker makes.
//
// Only a sysfs topology carries real CPU ids, so only it is ever pinned.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace paracosm::util {

/// One logical CPU's position in the machine tree. All ids are normalized to
/// dense 0-based indexes (sysfs package ids can be sparse).
struct TopoCpu {
  unsigned cpu = 0;      ///< OS cpu id (valid for pinning only when kSysfs)
  unsigned core = 0;     ///< global core index (unique across packages)
  unsigned package = 0;  ///< physical package / socket
};

enum class TopoSource : std::uint8_t {
  kFlat,   ///< no information: one core per cpu
  kSysfs,  ///< parsed from a real sysfs tree
};

struct HwTopology {
  std::vector<TopoCpu> cpus;  ///< sorted by os cpu id; only allowed CPUs
  TopoSource source = TopoSource::kFlat;

  [[nodiscard]] unsigned num_cpus() const noexcept {
    return static_cast<unsigned>(cpus.size());
  }

  /// One core per cpu — the degraded/no-information shape.
  [[nodiscard]] static HwTopology flat(unsigned n);

  /// Parse a sysfs tree rooted at `sysfs_root` (i.e. the directory that
  /// contains devices/system/cpu). `allowed` restricts to those OS cpu ids
  /// (empty = no restriction). Returns a flat topology when the tree is
  /// missing or yields no usable CPU.
  [[nodiscard]] static HwTopology from_sysfs(const std::string& sysfs_root,
                                             std::span<const unsigned> allowed = {});

  /// Full detection: /sys restricted to the affinity mask, else
  /// flat(affinity cpu count).
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

/// Deterministic worker→CPU assignment over `topo`: CPUs ordered by
/// (smt-rank within core, core) — so distinct cores fill before their SMT
/// siblings — and worker w takes the w-th CPU modulo the topology size.
[[nodiscard]] std::vector<TopoCpu> assign_workers(const HwTopology& topo,
                                                  unsigned workers);

/// Pin the calling thread to OS cpu `cpu`. Returns false where unsupported
/// or when the kernel rejects the mask (cpu offline / outside the cgroup).
bool pin_current_thread(unsigned cpu);

}  // namespace paracosm::util
