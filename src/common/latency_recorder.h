#ifndef LEAPME_COMMON_LATENCY_RECORDER_H_
#define LEAPME_COMMON_LATENCY_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace leapme {

/// HDR-style log-bucketed latency histogram.
///
/// Values (nanoseconds) are binned into buckets whose width grows with
/// the value: each power-of-two octave is split into 2^kSubBucketBits
/// linear sub-buckets, bounding the relative quantile error at
/// 2^-kSubBucketBits (~1.6%) while the whole range 1ns..hours fits in a
/// fixed ~30KB table. Nothing is ever evicted: a soak can record hundreds
/// of millions of samples and every one still weighs on the quantiles —
/// which is what makes the histogram safe for coordinated-omission
/// accounting, where the worst samples are precisely the ones a bounded
/// window would age out. The load drivers record client-side latency
/// with it and MatcherService records its per-request service time.
///
/// Record is wait-free (a few relaxed atomic adds); Merge sums another
/// histogram in, so per-client-thread recorders combine into a run-level
/// one without contention during the measurement itself.
class LatencyRecorder {
 public:
  /// Linear sub-buckets per octave = 2^kSubBucketBits; relative quantile
  /// error is bounded by 2^-kSubBucketBits.
  static constexpr unsigned kSubBucketBits = 6;

  LatencyRecorder();

  /// Records one latency sample in nanoseconds (0 counts as 1).
  void RecordNanos(uint64_t nanos);

  /// Adds every bucket of `other` into this histogram.
  void Merge(const LatencyRecorder& other);

  /// The `q`-quantile (q in [0, 1]) in microseconds: the midpoint of the
  /// bucket holding the ceil(q * count)-th smallest sample; 0 when empty.
  double QuantileUs(double q) const;

  /// Largest recorded sample, exact (not bucket-rounded), microseconds.
  double MaxUs() const;

  /// Mean of all recorded samples in microseconds (sum kept exactly).
  double MeanUs() const;

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// The standard percentile set every report in this repo shares.
  struct Summary {
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double max_us = 0.0;
    double mean_us = 0.0;
    uint64_t count = 0;
  };
  Summary Snapshot() const;

 private:
  static size_t BucketOf(uint64_t nanos);
  static uint64_t BucketMidpointNanos(size_t index);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> max_nanos_{0};
};

}  // namespace leapme

#endif  // LEAPME_COMMON_LATENCY_RECORDER_H_
