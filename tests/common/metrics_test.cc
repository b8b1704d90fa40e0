// Tests for the serving metrics primitives (common/metrics.h).

#include "common/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace leapme {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(BucketHistogramTest, PowerOfTwoBucketing) {
  BucketHistogram histogram(4);
  // bucket 0: 1, bucket 1: 2-3, bucket 2: 4-7, bucket 3: 8+ (open-ended).
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(3);
  histogram.Record(4);
  histogram.Record(7);
  histogram.Record(8);
  histogram.Record(1000);
  std::vector<uint64_t> counts = histogram.Snapshot();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(BucketHistogramTest, ZeroCountsAsOne) {
  BucketHistogram histogram(3);
  histogram.Record(0);
  EXPECT_EQ(histogram.Snapshot()[0], 1u);
}

TEST(BucketHistogramTest, LabelsDescribeRanges) {
  BucketHistogram histogram(4);
  EXPECT_EQ(histogram.BucketLabel(0), "1");
  EXPECT_EQ(histogram.BucketLabel(1), "2-3");
  EXPECT_EQ(histogram.BucketLabel(2), "4-7");
  EXPECT_EQ(histogram.BucketLabel(3), "8+");
}

}  // namespace
}  // namespace leapme
