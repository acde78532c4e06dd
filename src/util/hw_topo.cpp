#include "util/hw_topo.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace paracosm::util {
namespace {

namespace fs = std::filesystem;

// Read a small sysfs attribute as an integer; nullopt on any failure.
std::optional<long> read_int_file(const fs::path& p) {
  std::ifstream in(p);
  if (!in) return std::nullopt;
  long v = 0;
  if (!(in >> v)) return std::nullopt;
  return v;
}

// Renumber arbitrary (possibly sparse) ids to dense 0-based indexes in
// ascending id order, preserving relative order.
template <typename Key>
std::map<Key, unsigned> densify(const std::set<Key>& keys) {
  std::map<Key, unsigned> idx;
  unsigned next = 0;
  for (const Key& k : keys) idx.emplace(k, next++);
  return idx;
}

}  // namespace

HwTopology HwTopology::flat(unsigned n) {
  HwTopology t;
  t.cpus.reserve(n);
  for (unsigned i = 0; i < n; ++i) t.cpus.push_back(TopoCpu{i, i, 0});
  t.source = TopoSource::kFlat;
  return t;
}

HwTopology HwTopology::from_sysfs(const std::string& sysfs_root,
                                  std::span<const unsigned> allowed) {
  const fs::path cpu_dir = fs::path(sysfs_root) / "devices" / "system" / "cpu";
  std::error_code ec;
  if (!fs::is_directory(cpu_dir, ec) || ec) return flat(affinity_cpu_count());

  std::set<unsigned> allow(allowed.begin(), allowed.end());
  // cpu id → (package_id, core_id) as reported (possibly sparse).
  std::map<unsigned, std::pair<long, long>> raw;
  for (const auto& entry : fs::directory_iterator(cpu_dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.size() <= 3 || name.compare(0, 3, "cpu") != 0) continue;
    bool digits = std::all_of(name.begin() + 3, name.end(), [](char ch) {
      return std::isdigit(static_cast<unsigned char>(ch)) != 0;
    });
    if (!digits) continue;  // cpufreq, cpuidle, ...
    unsigned id = static_cast<unsigned>(std::stoul(name.substr(3)));
    if (!allow.empty() && allow.count(id) == 0) continue;
    const fs::path topo = entry.path() / "topology";
    // Missing attributes degrade per-CPU: package 0, core = own cpu id.
    long pkg = read_int_file(topo / "physical_package_id").value_or(0);
    long core = read_int_file(topo / "core_id").value_or(static_cast<long>(id));
    if (pkg < 0) pkg = 0;
    if (core < 0) core = static_cast<long>(id);
    raw.emplace(id, std::make_pair(pkg, core));
  }
  if (raw.empty()) return flat(affinity_cpu_count());

  std::set<long> pkg_ids;
  std::set<std::pair<long, long>> core_keys;  // (package, core_id)
  for (const auto& [id, pc] : raw) {
    pkg_ids.insert(pc.first);
    core_keys.insert(pc);
  }
  auto pkg_idx = densify(pkg_ids);
  auto core_idx = densify(core_keys);

  HwTopology t;
  t.cpus.reserve(raw.size());
  for (const auto& [id, pc] : raw) {
    TopoCpu c;
    c.cpu = id;
    c.package = pkg_idx.at(pc.first);
    c.core = core_idx.at(pc);
    t.cpus.push_back(c);
  }
  t.source = TopoSource::kSysfs;
  return t;
}

HwTopology HwTopology::detect() {
  std::vector<unsigned> mask = affinity_cpus();
  HwTopology t = from_sysfs("/sys", mask);
  if (t.source == TopoSource::kSysfs) return t;
  return flat(affinity_cpu_count());
}

const HwTopology& HwTopology::cached() {
  static const HwTopology topo = detect();
  return topo;
}

std::vector<unsigned> affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::vector<unsigned> out;
    for (unsigned c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
    if (!out.empty()) return out;
  }
#endif
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  std::vector<unsigned> out(n);
  for (unsigned i = 0; i < n; ++i) out[i] = i;
  return out;
}

unsigned affinity_cpu_count() {
  auto cpus = affinity_cpus();
  return cpus.empty() ? 1u : static_cast<unsigned>(cpus.size());
}

std::vector<TopoCpu> assign_workers(const HwTopology& topo, unsigned workers) {
  std::vector<TopoCpu> order = topo.cpus;
  if (order.empty()) {
    HwTopology f = HwTopology::flat(workers == 0 ? 1 : workers);
    order = f.cpus;
  }
  // smt_rank: the k-th logical CPU seen on a core (CPUs arrive in ascending
  // os id, which is the kernel's sibling order). Sorting by (smt_rank, core)
  // fills every distinct core before any SMT sibling.
  std::map<unsigned, unsigned> seen_on_core;
  std::vector<unsigned> smt_rank(order.size(), 0);
  {
    std::vector<TopoCpu> by_id = order;
    std::sort(by_id.begin(), by_id.end(),
              [](const TopoCpu& a, const TopoCpu& b) { return a.cpu < b.cpu; });
    std::map<unsigned, unsigned> rank_of_cpu_map;
    for (const TopoCpu& c : by_id) rank_of_cpu_map[c.cpu] = seen_on_core[c.core]++;
    for (std::size_t i = 0; i < order.size(); ++i)
      smt_rank[i] = rank_of_cpu_map[order[i].cpu];
  }
  std::vector<std::size_t> idx(order.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const TopoCpu& ca = order[a];
    const TopoCpu& cb = order[b];
    if (smt_rank[a] != smt_rank[b]) return smt_rank[a] < smt_rank[b];
    if (ca.core != cb.core) return ca.core < cb.core;
    return ca.cpu < cb.cpu;
  });
  std::vector<TopoCpu> out;
  out.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) out.push_back(order[idx[w % idx.size()]]);
  return out;
}

bool pin_current_thread(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= CPU_SETSIZE) return false;
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace paracosm::util
