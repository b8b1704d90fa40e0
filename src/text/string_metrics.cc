#include "text/string_metrics.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "text/ngram.h"

namespace leapme::text {

namespace {

/// Longest pattern the single-word bit-parallel kernels take: one bit per
/// pattern byte in a uint64_t. Longer inputs use the DP fallbacks.
constexpr size_t kWordBits = 64;

/// Match masks of one pattern of at most kWordBits bytes: bit i of
/// `mask(c)` is set where pattern[i] == c. The 256-entry table is per
/// thread and all-zero between uses; the constructor sets only the
/// pattern's entries and the destructor clears only those, so a call
/// costs O(pattern length) and allocates nothing. At most one instance
/// may be alive per thread.
class PatternMasks {
 public:
  explicit PatternMasks(std::string_view pattern) : pattern_(pattern) {
    for (size_t i = 0; i < pattern.size(); ++i) {
      table_[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
    }
  }
  ~PatternMasks() {
    for (char c : pattern_) table_[static_cast<unsigned char>(c)] = 0;
  }
  PatternMasks(const PatternMasks&) = delete;
  PatternMasks& operator=(const PatternMasks&) = delete;

  uint64_t mask(char c) const {
    return table_[static_cast<unsigned char>(c)];
  }

 private:
  static thread_local uint64_t table_[256];
  std::string_view pattern_;
};

thread_local uint64_t PatternMasks::table_[256] = {};

/// Levenshtein (kTranspositions = false) or optimal string alignment
/// (true) distance by Hyyrö's bit-vector algorithm (Myers' algorithm
/// for Levenshtein; Hyyrö 2002/2003 for the transposition term).
/// `pattern` has 1..kWordBits bytes; `text` any length. Column j of the
/// DP matrix is kept as vertical +1/-1 delta vectors (vp, vn), and the
/// bottom cell D[m][j] is tracked through the horizontal deltas of its
/// row.
template <bool kTranspositions>
size_t HyyroDistance(std::string_view pattern, std::string_view text) {
  const PatternMasks masks(pattern);
  const uint64_t last = uint64_t{1} << (pattern.size() - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint64_t d0 = 0;
  uint64_t previous_eq = 0;
  size_t distance = pattern.size();
  for (char c : text) {
    const uint64_t eq = masks.mask(c);
    uint64_t transposed = 0;
    if constexpr (kTranspositions) {
      transposed = ((~d0 & eq) << 1) & previous_eq;
      previous_eq = eq;
    }
    d0 = (((eq & vp) + vp) ^ vp) | eq | vn | transposed;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    if (hp & last) ++distance;
    if (hn & last) --distance;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return distance;
}

/// LCS length by the Allison-Dix / Hyyrö bit-vector recurrence: the zero
/// bits of `v` (within the pattern's width) mark the pattern positions
/// that end a longest common subsequence. `pattern` has 1..kWordBits
/// bytes.
size_t BitParallelLcs(std::string_view pattern, std::string_view text) {
  const PatternMasks masks(pattern);
  uint64_t v = ~uint64_t{0};
  for (char c : text) {
    const uint64_t u = v & masks.mask(c);
    v = (v + u) | (v - u);
  }
  const uint64_t width = pattern.size() == kWordBits
                             ? ~uint64_t{0}
                             : (uint64_t{1} << pattern.size()) - 1;
  return static_cast<size_t>(std::popcount(~v & width));
}

/// Full (unrestricted) Damerau-Levenshtein distance by the
/// Lowrance-Wagner algorithm, over the flat (n + 2) x (m + 2) matrix `d`
/// (n, m >= 1). Every cell the recurrence reads is written first, so `d`
/// need not be cleared.
template <typename Cell>
size_t LowranceWagner(std::string_view a, std::string_view b, Cell* d) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t kInf = n + m;
  const size_t stride = m + 2;
  d[0] = static_cast<Cell>(kInf);
  for (size_t i = 0; i <= n; ++i) {
    d[(i + 1) * stride] = static_cast<Cell>(kInf);
    d[(i + 1) * stride + 1] = static_cast<Cell>(i);
  }
  for (size_t j = 0; j <= m; ++j) {
    d[j + 1] = static_cast<Cell>(kInf);
    d[stride + j + 1] = static_cast<Cell>(j);
  }
  // Last row (1-based, 0 = none yet) in which each byte occurred in `a`.
  // Row 0 and column 0 hold kInf, so a transposition whose i1 or j1 is 0
  // costs at least kInf and never wins the minimum: no branch is needed.
  Cell last_row[256] = {};
  for (size_t i = 1; i <= n; ++i) {
    const unsigned char ai = static_cast<unsigned char>(a[i - 1]);
    const Cell* above = d + i * stride;
    Cell* row = d + (i + 1) * stride;
    size_t left = row[1];
    size_t last_match_col = 0;
    for (size_t j = 1; j <= m; ++j) {
      const unsigned char bj = static_cast<unsigned char>(b[j - 1]);
      const size_t i1 = last_row[bj];
      const size_t j1 = last_match_col;
      size_t cost = 1;
      if (ai == bj) {
        cost = 0;
        last_match_col = j;
      }
      const size_t transposition =
          d[i1 * stride + j1] + (i - i1 - 1) + 1 + (j - j1 - 1);
      const size_t from_above = std::min(
          {above[j] + cost, size_t{above[j + 1]} + 1, transposition});
      left = std::min(from_above, left + 1);
      row[j + 1] = static_cast<Cell>(left);
    }
    last_row[ai] = static_cast<Cell>(i);
  }
  return d[(n + 1) * stride + m + 1];
}

/// Jaro's greedy matching over bitmasks, for n, m in 1..kWordBits. Each
/// a[i] takes the lowest unmatched b[j] of its window with the same byte,
/// exactly like the scan in JaroMatchScan.
void JaroMatchMasks(std::string_view a, std::string_view b, size_t window,
                    size_t* matches, size_t* transpositions) {
  const PatternMasks b_masks(b);
  const size_t m = b.size();
  uint64_t a_matched = 0;
  uint64_t b_matched = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    if (lo >= hi) continue;
    const uint64_t below_hi =
        hi == kWordBits ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t in_window = below_hi & ~((uint64_t{1} << lo) - 1);
    const uint64_t free = b_masks.mask(a[i]) & ~b_matched & in_window;
    if (free == 0) continue;
    b_matched |= free & -free;
    a_matched |= uint64_t{1} << i;
  }
  *matches = static_cast<size_t>(std::popcount(a_matched));
  *transpositions = 0;
  while (a_matched != 0) {
    if (a[std::countr_zero(a_matched)] != b[std::countr_zero(b_matched)]) {
      ++*transpositions;
    }
    a_matched &= a_matched - 1;
    b_matched &= b_matched - 1;
  }
}

/// Jaro's greedy matching by scanning, for inputs of any length.
void JaroMatchScan(std::string_view a, std::string_view b, size_t window,
                   size_t* matches, size_t* transpositions) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<bool> a_matched(n, false);
  std::vector<bool> b_matched(m, false);
  *matches = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++*matches;
        break;
      }
    }
  }
  *transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++*transpositions;
    ++j;
  }
}

}  // namespace

size_t Levenshtein(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // The shorter string is the pattern of the bit-parallel kernel, or the
  // row of the single-row DP (bounds memory).
  if (m > n) return Levenshtein(b, a);
  if (m <= kWordBits) return HyyroDistance<false>(b, a);
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[m];
}

size_t OptimalStringAlignment(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // OSA is symmetric, so the shorter string can be the pattern.
  if (std::min(n, m) <= kWordBits) {
    return n < m ? HyyroDistance<true>(a, b) : HyyroDistance<true>(b, a);
  }
  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> prev2(m + 1);
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

size_t DamerauLevenshtein(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // No cell exceeds n + m, so inputs of up to kWordBits bytes fit 16-bit
  // cells in one flat buffer on the stack: nothing is allocated.
  if (n <= kWordBits && m <= kWordBits) {
    uint16_t matrix[(kWordBits + 2) * (kWordBits + 2)];
    return LowranceWagner(a, b, matrix);
  }
  std::vector<size_t> matrix((n + 2) * (m + 2));
  return LowranceWagner(a, b, matrix.data());
}

size_t LongestCommonSubsequence(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0;
  if (m > n) return LongestCommonSubsequence(b, a);
  if (m <= kWordBits) return BitParallelLcs(b, a);
  std::vector<size_t> row(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    size_t diagonal = 0;
    for (size_t j = 1; j <= m; ++j) {
      size_t above = row[j];
      if (a[i - 1] == b[j - 1]) {
        row[j] = diagonal + 1;
      } else {
        row[j] = std::max(row[j], row[j - 1]);
      }
      diagonal = above;
    }
  }
  return row[m];
}

size_t LcsDistance(std::string_view a, std::string_view b) {
  return a.size() + b.size() - 2 * LongestCommonSubsequence(a, b);
}

double ThreeGramDistance(std::string_view a, std::string_view b) {
  return QgramDistance(GramProfile(a, kQgramSize), GramProfile(b, kQgramSize));
}

double ThreeGramCosineDistance(std::string_view a, std::string_view b) {
  return CosineDistance(GramProfile(a, kQgramSize),
                        GramProfile(b, kQgramSize));
}

double ThreeGramJaccardDistance(std::string_view a, std::string_view b) {
  return JaccardDistance(GramProfile(a, kQgramSize),
                         GramProfile(b, kQgramSize));
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const size_t window =
      std::max(n, m) <= 1 ? 0 : std::max(n, m) / 2 - 1;
  size_t matches = 0;
  size_t transpositions = 0;
  if (n <= kWordBits && m <= kWordBits) {
    JaroMatchMasks(a, b, window, &matches, &transpositions);
  } else {
    JaroMatchScan(a, b, window, &matches, &transpositions);
  }
  if (matches == 0) return 0.0;
  double mm = static_cast<double>(matches);
  return (mm / static_cast<double>(n) + mm / static_cast<double>(m) +
          (mm - static_cast<double>(transpositions) / 2.0) / mm) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_scale * (1.0 - jaro);
}

double JaroWinklerDistance(std::string_view a, std::string_view b,
                           double prefix_scale) {
  return 1.0 - JaroWinklerSimilarity(a, b, prefix_scale);
}

double NormalizedByMaxLength(size_t distance, std::string_view a,
                             std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(distance) / static_cast<double>(longest);
}

}  // namespace leapme::text
