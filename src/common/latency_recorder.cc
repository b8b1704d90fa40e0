#include "common/latency_recorder.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace leapme {

namespace {

constexpr unsigned kSubBuckets = 1u << LatencyRecorder::kSubBucketBits;

/// Highest bucket index: octaves for shifts 1..(63 - kSubBucketBits)
/// on top of the exact region [0, 2 * kSubBuckets).
constexpr size_t BucketCount() {
  return (64 - LatencyRecorder::kSubBucketBits) * kSubBuckets;
}

}  // namespace

LatencyRecorder::LatencyRecorder() : buckets_(BucketCount()) {}

// Bucket layout: values below 2*kSubBuckets map to themselves (exact);
// a value with top bit t > kSubBucketBits is shifted right until
// kSubBucketBits+1 significant bits remain, giving
//   index = shift * kSubBuckets + (value >> shift)
// which continues the exact region seamlessly and subdivides every
// octave into kSubBuckets linear steps.
size_t LatencyRecorder::BucketOf(uint64_t nanos) {
  if (nanos == 0) nanos = 1;
  const int top = 63 - std::countl_zero(nanos);
  if (top <= static_cast<int>(kSubBucketBits)) {
    return static_cast<size_t>(nanos);
  }
  const unsigned shift = static_cast<unsigned>(top) - kSubBucketBits;
  const size_t index =
      static_cast<size_t>(shift) * kSubBuckets + (nanos >> shift);
  return std::min(index, BucketCount() - 1);
}

uint64_t LatencyRecorder::BucketMidpointNanos(size_t index) {
  if (index < 2 * kSubBuckets) {
    return static_cast<uint64_t>(index);
  }
  const unsigned shift = static_cast<unsigned>(index / kSubBuckets) - 1;
  const uint64_t base =
      (static_cast<uint64_t>(index) - static_cast<uint64_t>(shift) *
                                          kSubBuckets)
      << shift;
  return base + (uint64_t{1} << shift) / 2;
}

void LatencyRecorder::RecordNanos(uint64_t nanos) {
  if (nanos == 0) nanos = 1;
  buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_nanos_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n > 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_nanos_.fetch_add(other.sum_nanos_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  const uint64_t other_max =
      other.max_nanos_.load(std::memory_order_relaxed);
  uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (other_max > seen && !max_nanos_.compare_exchange_weak(
                                 seen, other_max,
                                 std::memory_order_relaxed)) {
  }
}

double LatencyRecorder::QuantileUs(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return static_cast<double>(BucketMidpointNanos(i)) / 1000.0;
    }
  }
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) /
         1000.0;
}

double LatencyRecorder::MaxUs() const {
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) /
         1000.0;
}

double LatencyRecorder::MeanUs() const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
         static_cast<double>(total) / 1000.0;
}

LatencyRecorder::Summary LatencyRecorder::Snapshot() const {
  Summary summary;
  summary.count = count();
  summary.p50_us = QuantileUs(0.50);
  summary.p95_us = QuantileUs(0.95);
  summary.p99_us = QuantileUs(0.99);
  summary.p999_us = QuantileUs(0.999);
  summary.max_us = MaxUs();
  summary.mean_us = MeanUs();
  return summary;
}

}  // namespace leapme
