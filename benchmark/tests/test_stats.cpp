#include <gtest/gtest.h>

#include "stats.hpp"

namespace bench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(100), 100), 100);
  EXPECT_EQ(percentile(one_to(100), 0), 1);
  EXPECT_EQ(percentile(one_to(3), 50), 2);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(TailRule, TenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(supported_tail(10000), 99.9);
  EXPECT_EQ(supported_tail(9999), 99.0);
  EXPECT_EQ(supported_tail(1000), 99.0);
  EXPECT_EQ(supported_tail(999), 95.0);
  EXPECT_EQ(supported_tail(200), 95.0);
  EXPECT_EQ(supported_tail(199), 90.0);
  EXPECT_EQ(supported_tail(40), 75.0);
  EXPECT_EQ(supported_tail(5), 50.0);
}

}  // namespace
}  // namespace bench
