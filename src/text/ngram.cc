#include "text/ngram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace leapme::text {

namespace {

uint32_t PackGram(std::string_view gram) {
  uint32_t key = 0;
  for (char c : gram) key = (key << 8) | static_cast<unsigned char>(c);
  return key;
}

/// Walks two sorted key vectors in step and calls `visit(count_a,
/// count_b)` once per distinct key of either side (one count may be 0).
/// Every distance below is a function of these integer counts alone, so
/// the visiting order cannot change a result.
template <typename Visit>
void MergeRuns(std::span<const uint32_t> a, std::span<const uint32_t> b,
               Visit visit) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const uint32_t key =
        j == b.size() || (i < a.size() && a[i] < b[j]) ? a[i] : b[j];
    size_t count_a = 0;
    while (i < a.size() && a[i] == key) ++i, ++count_a;
    size_t count_b = 0;
    while (j < b.size() && b[j] == key) ++j, ++count_b;
    visit(count_a, count_b);
  }
}

}  // namespace

GramProfile::GramProfile(std::string_view text, size_t n)
    : gram_size_(static_cast<uint8_t>(n)) {
  LEAPME_CHECK_LE(n, kMaxGramSize);
  if (n == 0 || text.size() < n) return;
  keys_.reserve(text.size() - n + 1);
  const uint32_t mask =
      n == kMaxGramSize ? ~uint32_t{0} : (uint32_t{1} << (8 * n)) - 1;
  uint32_t key = PackGram(text.substr(0, n - 1));
  for (size_t i = n - 1; i < text.size(); ++i) {
    key = ((key << 8) | static_cast<unsigned char>(text[i])) & mask;
    keys_.push_back(key);
  }
  std::sort(keys_.begin(), keys_.end());
}

size_t GramProfile::distinct() const {
  size_t runs = 0;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i == 0 || keys_[i] != keys_[i - 1]) ++runs;
  }
  return runs;
}

size_t GramProfile::count(std::string_view gram) const {
  if (gram.size() != gram_size_) return 0;
  auto [first, last] =
      std::equal_range(keys_.begin(), keys_.end(), PackGram(gram));
  return static_cast<size_t>(last - first);
}

// The sums below are exact integers, so converting them to double once
// gives the same value as accumulating the per-gram terms in double.

double QgramDistance(const GramProfile& a, const GramProfile& b) {
  uint64_t distance = 0;
  MergeRuns(a.keys(), b.keys(), [&](size_t count_a, size_t count_b) {
    distance += count_a > count_b ? count_a - count_b : count_b - count_a;
  });
  return static_cast<double>(distance);
}

double CosineDistance(const GramProfile& a, const GramProfile& b) {
  if (a.total() == 0 && b.total() == 0) return 0.0;
  if (a.total() == 0 || b.total() == 0) return 1.0;
  uint64_t dot = 0;
  uint64_t norm_a = 0;
  uint64_t norm_b = 0;
  MergeRuns(a.keys(), b.keys(), [&](size_t count_a, size_t count_b) {
    dot += count_a * count_b;
    norm_a += count_a * count_a;
    norm_b += count_b * count_b;
  });
  return 1.0 - static_cast<double>(dot) /
                   (std::sqrt(static_cast<double>(norm_a)) *
                    std::sqrt(static_cast<double>(norm_b)));
}

double JaccardDistance(const GramProfile& a, const GramProfile& b) {
  if (a.total() == 0 && b.total() == 0) return 0.0;
  if (a.total() == 0 || b.total() == 0) return 1.0;
  size_t intersection = 0;
  size_t unions = 0;
  MergeRuns(a.keys(), b.keys(), [&](size_t count_a, size_t count_b) {
    ++unions;
    if (count_a > 0 && count_b > 0) ++intersection;
  });
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(unions);
}

}  // namespace leapme::text
