// Topology-layer tests: sysfs parsing against canned trees written to a temp
// dir, graceful degradation, affinity restriction and worker placement.
#include "util/hw_topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace paracosm::util {
namespace {

namespace fs = std::filesystem;

class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("paracosm_hw_topo_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void add_cpu(unsigned id, long package, long core) {
    const fs::path topo =
        root_ / "devices" / "system" / "cpu" / ("cpu" + std::to_string(id)) /
        "topology";
    fs::create_directories(topo);
    write(topo / "physical_package_id", std::to_string(package));
    write(topo / "core_id", std::to_string(core));
  }

  /// A cpu directory with no topology attributes (degraded kernel tree).
  void add_bare_cpu(unsigned id) {
    fs::create_directories(root_ / "devices" / "system" / "cpu" /
                           ("cpu" + std::to_string(id)));
  }

  /// Distractor entries the cpu-dir scan must skip.
  void add_noise() {
    fs::create_directories(root_ / "devices" / "system" / "cpu" / "cpufreq");
    fs::create_directories(root_ / "devices" / "system" / "cpu" / "cpuidle");
    write(root_ / "devices" / "system" / "cpu" / "possible", "0-63");
  }

  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  static void write(const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text << "\n";
  }

  fs::path root_;
};

const TopoCpu* find_cpu(const HwTopology& t, unsigned os_id) {
  for (const TopoCpu& c : t.cpus)
    if (c.cpu == os_id) return &c;
  return nullptr;
}

unsigned distinct_cores(const HwTopology& t) {
  std::set<unsigned> cores;
  for (const TopoCpu& c : t.cpus) cores.insert(c.core);
  return static_cast<unsigned>(cores.size());
}

unsigned distinct_packages(const HwTopology& t) {
  std::set<unsigned> packages;
  for (const TopoCpu& c : t.cpus) packages.insert(c.package);
  return static_cast<unsigned>(packages.size());
}

/// Hand-made topology: cpu i sits on core core_of[i], package 0.
HwTopology make_topology(const std::vector<unsigned>& core_of) {
  HwTopology t;
  for (unsigned i = 0; i < core_of.size(); ++i)
    t.cpus.push_back(TopoCpu{i, core_of[i], 0});
  t.source = TopoSource::kSysfs;
  return t;
}

// --- synthetic shapes -------------------------------------------------------

TEST(HwTopo, FlatShape) {
  const HwTopology t = HwTopology::flat(4);
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(distinct_cores(t), 4u);
  EXPECT_EQ(t.source, TopoSource::kFlat);
}

// --- sysfs parsing ----------------------------------------------------------

TEST_F(SysfsFixture, SingleSocketNoNodeDir) {
  for (unsigned i = 0; i < 4; ++i) add_cpu(i, 0, static_cast<long>(i));
  add_noise();
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(t.source, TopoSource::kSysfs);
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(distinct_packages(t), 1u);
  EXPECT_EQ(distinct_cores(t), 4u);
}

TEST_F(SysfsFixture, TwoSocketWithNodes) {
  for (unsigned i = 0; i < 4; ++i) add_cpu(i, 0, static_cast<long>(i));
  for (unsigned i = 4; i < 8; ++i) add_cpu(i, 1, static_cast<long>(i - 4));
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(t.num_cpus(), 8u);
  EXPECT_EQ(distinct_packages(t), 2u);
  EXPECT_EQ(distinct_cores(t), 8u);  // same core_id on different packages = distinct
  EXPECT_EQ(find_cpu(t, 2)->package, 0u);
  EXPECT_EQ(find_cpu(t, 6)->package, 1u);
  EXPECT_NE(find_cpu(t, 0)->core, find_cpu(t, 4)->core);
}

TEST_F(SysfsFixture, SmtSiblingsShareCore) {
  add_cpu(0, 0, 0);
  add_cpu(1, 0, 1);
  add_cpu(2, 0, 0);  // SMT sibling of cpu0
  add_cpu(3, 0, 1);  // SMT sibling of cpu1
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(distinct_cores(t), 2u);
  EXPECT_EQ(find_cpu(t, 0)->core, find_cpu(t, 2)->core);
  EXPECT_EQ(find_cpu(t, 1)->core, find_cpu(t, 3)->core);
  EXPECT_NE(find_cpu(t, 0)->core, find_cpu(t, 1)->core);
}

TEST_F(SysfsFixture, HotplugHoleInCpuList) {
  add_cpu(0, 0, 0);
  add_cpu(1, 0, 1);
  // cpu2 offline/hotplugged out: directory absent entirely.
  add_cpu(3, 0, 3);
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(t.num_cpus(), 3u);
  EXPECT_EQ(find_cpu(t, 2), nullptr);
  EXPECT_NE(find_cpu(t, 3), nullptr);
}

TEST_F(SysfsFixture, SparsePackageIdsAreDensified) {
  add_cpu(0, 3, 0);
  add_cpu(1, 7, 0);
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(distinct_packages(t), 2u);
  EXPECT_EQ(find_cpu(t, 0)->package, 0u);
  EXPECT_EQ(find_cpu(t, 1)->package, 1u);
}

TEST_F(SysfsFixture, MissingTopologyAttrsDegradePerCpu) {
  add_bare_cpu(0);
  add_bare_cpu(1);
  const HwTopology t = HwTopology::from_sysfs(root());
  EXPECT_EQ(t.source, TopoSource::kSysfs);
  EXPECT_EQ(t.num_cpus(), 2u);
  EXPECT_EQ(distinct_cores(t), 2u);  // core = own cpu id fallback
}

TEST_F(SysfsFixture, MissingTreeFallsBackToFlat) {
  const HwTopology t = HwTopology::from_sysfs(root() + "/does_not_exist");
  EXPECT_EQ(t.source, TopoSource::kFlat);
  EXPECT_GE(t.num_cpus(), 1u);
}

TEST_F(SysfsFixture, AffinityMaskRestrictsCpus) {
  for (unsigned i = 0; i < 8; ++i) add_cpu(i, i / 4, static_cast<long>(i % 4));
  const std::vector<unsigned> allowed = {1, 2, 5};
  const HwTopology t = HwTopology::from_sysfs(root(), allowed);
  EXPECT_EQ(t.num_cpus(), 3u);
  EXPECT_EQ(find_cpu(t, 0), nullptr);
  EXPECT_NE(find_cpu(t, 5), nullptr);
  EXPECT_EQ(distinct_packages(t), 2u);
}

TEST(HwTopo, AffinityCpuCountPositive) {
  EXPECT_GE(affinity_cpu_count(), 1u);
  const auto cpus = affinity_cpus();
  EXPECT_EQ(cpus.size(), affinity_cpu_count());
  EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
}

TEST(HwTopo, DetectNeverFails) {
  const HwTopology t = HwTopology::detect();
  EXPECT_GE(t.num_cpus(), 1u);
  const HwTopology& c = HwTopology::cached();
  EXPECT_EQ(c.num_cpus(), t.num_cpus());
}

// --- worker assignment ------------------------------------------------------

TEST(HwTopo, AssignFillsCoresBeforeSmtSiblings) {
  // 2 cores, 2-way SMT: cpus (0,1)=core0, (2,3)=core1.
  const HwTopology t = make_topology({0, 0, 1, 1});
  const auto a = assign_workers(t, 4);
  ASSERT_EQ(a.size(), 4u);
  // First two workers land on distinct cores; SMT siblings only after.
  EXPECT_NE(a[0].core, a[1].core);
  EXPECT_EQ(a[2].core, a[0].core);
  EXPECT_EQ(a[3].core, a[1].core);
}

TEST(HwTopo, AssignWrapsWhenOversubscribed) {
  const HwTopology t = make_topology({0, 1});
  const auto a = assign_workers(t, 5);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0].cpu, a[2].cpu);
  EXPECT_EQ(a[1].cpu, a[3].cpu);
  EXPECT_EQ(a[0].cpu, a[4].cpu);
}

}  // namespace
}  // namespace paracosm::util
