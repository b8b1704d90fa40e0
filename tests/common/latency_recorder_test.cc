#include "common/latency_recorder.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace leapme {
namespace {

// The histogram's accuracy contract: every quantile lands within
// 2^-kSubBucketBits (~1.6%) of the true value.
constexpr double kRelativeError = 0.017;

TEST(LatencyRecorderTest, EmptyRecorderReportsZeros) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.QuantileUs(0.5), 0.0);
  EXPECT_EQ(recorder.MaxUs(), 0.0);
  EXPECT_EQ(recorder.MeanUs(), 0.0);
}

TEST(LatencyRecorderTest, SingleValueDominatesEveryQuantile) {
  LatencyRecorder recorder;
  const uint64_t nanos = 1234567;  // 1.234567 ms
  recorder.RecordNanos(nanos);
  const double us = static_cast<double>(nanos) / 1000.0;
  for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_NEAR(recorder.QuantileUs(q), us, us * kRelativeError) << q;
  }
  // Max and mean are kept exactly, not bucket-rounded.
  EXPECT_EQ(recorder.MaxUs(), us);
  EXPECT_EQ(recorder.MeanUs(), us);
}

TEST(LatencyRecorderTest, QuantilesOfBimodalLoad) {
  // 900 fast (1ms) and 100 slow (100ms) samples: p50 must sit on the
  // fast mode, p95 and above on the slow one — the exact shape tail
  // accounting must preserve.
  LatencyRecorder recorder;
  for (int i = 0; i < 900; ++i) recorder.RecordNanos(1000000);
  for (int i = 0; i < 100; ++i) recorder.RecordNanos(100000000);
  EXPECT_NEAR(recorder.QuantileUs(0.50), 1000.0, 1000.0 * kRelativeError);
  EXPECT_NEAR(recorder.QuantileUs(0.95), 100000.0,
              100000.0 * kRelativeError);
  EXPECT_NEAR(recorder.QuantileUs(0.999), 100000.0,
              100000.0 * kRelativeError);
  // Mean uses the exact sum: (900 * 1 + 100 * 100) ms / 1000 = 10.9 ms.
  EXPECT_DOUBLE_EQ(recorder.MeanUs(), 10900.0);
  EXPECT_DOUBLE_EQ(recorder.MaxUs(), 100000.0);
  EXPECT_EQ(recorder.count(), 1000u);
}

TEST(LatencyRecorderTest, LinearRampQuantilesAreProportional) {
  LatencyRecorder recorder;
  const uint64_t kSamples = 10000;
  for (uint64_t i = 1; i <= kSamples; ++i) {
    recorder.RecordNanos(i * 10000);  // 10us .. 100ms, uniformly
  }
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double expected_us = q * 100000.0;
    EXPECT_NEAR(recorder.QuantileUs(q), expected_us,
                expected_us * (kRelativeError + 1.0 / kSamples))
        << q;
  }
}

TEST(LatencyRecorderTest, ExtremeValuesDoNotOverflowTheTable) {
  LatencyRecorder recorder;
  recorder.RecordNanos(0);  // clamps to 1ns rather than dropping
  recorder.RecordNanos(1);
  recorder.RecordNanos(7200000000000ull);  // two hours
  EXPECT_EQ(recorder.count(), 3u);
  EXPECT_DOUBLE_EQ(recorder.MaxUs(), 7200000000.0);
  EXPECT_NEAR(recorder.QuantileUs(1.0), 7200000000.0,
              7200000000.0 * kRelativeError);
}

TEST(LatencyRecorderTest, MergeMatchesRecordingIntoOneHistogram) {
  LatencyRecorder combined;
  LatencyRecorder left;
  LatencyRecorder right;
  for (uint64_t i = 1; i <= 5000; ++i) {
    const uint64_t nanos = i * 37 + (i * i) % 9001;
    combined.RecordNanos(nanos);
    (i % 2 == 0 ? left : right).RecordNanos(nanos);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_DOUBLE_EQ(left.MaxUs(), combined.MaxUs());
  EXPECT_DOUBLE_EQ(left.MeanUs(), combined.MeanUs());
  for (const double q : {0.5, 0.95, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(left.QuantileUs(q), combined.QuantileUs(q)) << q;
  }
}

TEST(LatencyRecorderTest, ConcurrentRecordersLoseNothing) {
  LatencyRecorder recorder;
  const unsigned kThreads = 4;
  const uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.RecordNanos((t + 1) * 1000000ull);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(recorder.MaxUs(), 4000.0);
  // Mean of equal shares of 1/2/3/4 ms.
  EXPECT_DOUBLE_EQ(recorder.MeanUs(), 2500.0);
}

TEST(LatencyRecorderTest, SnapshotPackagesTheStandardPercentiles) {
  LatencyRecorder recorder;
  for (int i = 0; i < 1000; ++i) recorder.RecordNanos(2000000);
  const LatencyRecorder::Summary summary = recorder.Snapshot();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_NEAR(summary.p50_us, 2000.0, 2000.0 * kRelativeError);
  EXPECT_NEAR(summary.p999_us, 2000.0, 2000.0 * kRelativeError);
  EXPECT_DOUBLE_EQ(summary.max_us, 2000.0);
  EXPECT_DOUBLE_EQ(summary.mean_us, 2000.0);
}

}  // namespace
}  // namespace leapme
