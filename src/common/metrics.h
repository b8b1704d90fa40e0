#ifndef LEAPME_COMMON_METRICS_H_
#define LEAPME_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace leapme {

/// Monotonically increasing counter, safe for concurrent increments.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Power-of-two bucketed histogram for small positive integers (batch
/// sizes): bucket i counts values in [2^i, 2^(i+1)), the last bucket is
/// open-ended. Concurrent Record calls are safe.
class BucketHistogram {
 public:
  /// `buckets` >= 1; bucket 0 covers value 1, bucket 1 covers 2-3, ...
  explicit BucketHistogram(size_t buckets = 8);

  /// Records one observation (values < 1 count as 1).
  void Record(uint64_t value);

  size_t bucket_count() const { return counts_.size(); }

  /// Counts per bucket at the time of the call.
  std::vector<uint64_t> Snapshot() const;

  /// Human-readable range of bucket `index`, e.g. "4-7" or "256+".
  std::string BucketLabel(size_t index) const;

 private:
  std::vector<std::atomic<uint64_t>> counts_;
};

}  // namespace leapme

#endif  // LEAPME_COMMON_METRICS_H_
