#include "common/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace leapme {

BucketHistogram::BucketHistogram(size_t buckets)
    : counts_(std::max<size_t>(1, buckets)) {}

void BucketHistogram::Record(uint64_t value) {
  if (value < 1) value = 1;
  size_t bucket = 0;
  while (bucket + 1 < counts_.size() && (value >> (bucket + 1)) != 0) {
    ++bucket;
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t> BucketHistogram::Snapshot() const {
  std::vector<uint64_t> snapshot(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    snapshot[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

std::string BucketHistogram::BucketLabel(size_t index) const {
  const uint64_t low = uint64_t{1} << index;
  if (index + 1 == counts_.size()) {
    return StrFormat("%llu+", static_cast<unsigned long long>(low));
  }
  const uint64_t high = (uint64_t{1} << (index + 1)) - 1;
  if (low == high) {
    return StrFormat("%llu", static_cast<unsigned long long>(low));
  }
  return StrFormat("%llu-%llu", static_cast<unsigned long long>(low),
                   static_cast<unsigned long long>(high));
}

}  // namespace leapme
