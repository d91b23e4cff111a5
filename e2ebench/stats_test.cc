#include "stats.h"

#include <vector>

#include <gtest/gtest.h>

namespace piperisk {
namespace e2e {
namespace {

// Expected quartiles are Python's statistics.quantiles(data, n=4) outputs.
TEST(QuartilesTest, MatchesPythonExclusiveMethod) {
  struct Case {
    std::vector<double> data;
    double q1, median, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{2.5, 0.5, 10, 7, 7.5, 1}, 0.875, 4.75, 8.125},
  };
  for (const Case& c : cases) {
    const Quartiles q = QuartilesOf(c.data);
    EXPECT_DOUBLE_EQ(q.q1, c.q1);
    EXPECT_DOUBLE_EQ(q.median, c.median);
    EXPECT_DOUBLE_EQ(q.q3, c.q3);
    EXPECT_EQ(q.count, c.data.size());
  }
}

TEST(QuartilesTest, DegenerateSamples) {
  const Quartiles empty = QuartilesOf({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.median, 0.0);
  const Quartiles one = QuartilesOf({4.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.q1, 4.0);
  EXPECT_EQ(one.median, 4.0);
  EXPECT_EQ(one.q3, 4.0);
}

TEST(MedianTest, OddEvenAndUnsorted) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SortedQuantileTest, InterpolatesBetweenRanks) {
  const std::vector<double> sorted = {10, 20, 30, 40, 50};
  EXPECT_EQ(SortedQuantile(sorted, 0.0), 10.0);
  EXPECT_EQ(SortedQuantile(sorted, 0.5), 30.0);
  EXPECT_EQ(SortedQuantile(sorted, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.125), 15.0);
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
}

TEST(TailTest, KeepsTenSamplesBeyond) {
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  const auto tail = SortedTail(sorted);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->count, 1000u);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_EQ(tail->value, 990.0);
  EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
  // Exactly ten values are larger than the reported one.
  int above = 0;
  for (double v : sorted) above += v > tail->value ? 1 : 0;
  EXPECT_EQ(above, 10);
}

TEST(TailTest, GrowsWithSampleSize) {
  std::vector<double> sorted;
  for (int i = 0; i < 100000; ++i) sorted.push_back(i);
  const auto tail = SortedTail(sorted);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.99);
  EXPECT_EQ(tail->value, 99989.0);
}

TEST(TailTest, TooFewSamplesHaveNoTail) {
  EXPECT_FALSE(SortedTail(std::vector<double>(10, 1.0)).has_value());
  const auto eleven = SortedTail(std::vector<double>(11, 2.0));
  ASSERT_TRUE(eleven.has_value());
  EXPECT_EQ(eleven->value, 2.0);
  EXPECT_EQ(SortedTail({1, 2, 3}, 2)->value, 1.0);
}

}  // namespace
}  // namespace e2e
}  // namespace piperisk
