// Cross-validation of the Table I string distances against independent
// reference implementations kept in this file (full-matrix DPs, a BFS in
// string space, hash-map q-gram profiles, a scanning Jaro):
//   - exhaustively, on all short strings over a small alphabet, which
//     catches subtle DP indexing bugs that hand-picked cases miss;
//   - differentially, on seeded random byte strings of length 0-130 over
//     all 256 byte values, which crosses the 64-byte switch between the
//     bit-parallel kernels and the DP fallbacks.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "text/ngram.h"
#include "text/string_metrics.h"

namespace leapme::text {
namespace {

// All strings of length <= max_length over `alphabet`.
std::vector<std::string> AllStrings(const std::string& alphabet,
                                    size_t max_length) {
  std::vector<std::string> result{""};
  std::vector<std::string> previous{""};
  for (size_t length = 1; length <= max_length; ++length) {
    std::vector<std::string> current;
    for (const std::string& prefix : previous) {
      for (char c : alphabet) {
        current.push_back(prefix + c);
      }
    }
    result.insert(result.end(), current.begin(), current.end());
    previous = std::move(current);
  }
  return result;
}

// Brute-force Levenshtein via BFS over edit operations is exponential;
// instead use the textbook full-matrix DP as an independent reference
// implementation (different code shape from the production rolling-row
// version).
size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
    }
  }
  return d[a.size()][b.size()];
}

// Full-matrix optimal string alignment (restricted Damerau-Levenshtein).
size_t ReferenceOsa(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[a.size()][b.size()];
}

// Full-matrix Lowrance-Wagner (unrestricted Damerau-Levenshtein) with an
// ordered map for the last row of each byte.
size_t ReferenceDamerauLevenshteinDp(const std::string& a,
                                     const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t inf = n + m;
  std::vector<std::vector<size_t>> d(n + 2, std::vector<size_t>(m + 2));
  d[0][0] = inf;
  for (size_t i = 0; i <= n; ++i) {
    d[i + 1][0] = inf;
    d[i + 1][1] = i;
  }
  for (size_t j = 0; j <= m; ++j) {
    d[0][j + 1] = inf;
    d[1][j + 1] = j;
  }
  std::map<unsigned char, size_t> last_row;
  for (size_t i = 1; i <= n; ++i) {
    size_t last_col = 0;
    for (size_t j = 1; j <= m; ++j) {
      auto it = last_row.find(static_cast<unsigned char>(b[j - 1]));
      const size_t i1 = it == last_row.end() ? 0 : it->second;
      const size_t j1 = last_col;
      size_t cost = 1;
      if (a[i - 1] == b[j - 1]) {
        cost = 0;
        last_col = j;
      }
      d[i + 1][j + 1] = std::min(
          {d[i][j] + cost, d[i + 1][j] + 1, d[i][j + 1] + 1,
           d[i1][j1] + (i - i1 - 1) + 1 + (j - j1 - 1)});
    }
    last_row[static_cast<unsigned char>(a[i - 1])] = i;
  }
  return d[n + 1][m + 1];
}

// Full-matrix longest common subsequence length.
size_t ReferenceLcs(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = a[i - 1] == b[j - 1]
                    ? d[i - 1][j - 1] + 1
                    : std::max(d[i - 1][j], d[i][j - 1]);
    }
  }
  return d[a.size()][b.size()];
}

// Hash-map 3-gram profile, accumulated in double gram by gram like the
// stringdist definitions.
using ReferenceProfile = std::unordered_map<std::string, size_t>;

ReferenceProfile ReferenceGrams(const std::string& s) {
  ReferenceProfile grams;
  for (size_t i = 0; i + 3 <= s.size(); ++i) ++grams[s.substr(i, 3)];
  return grams;
}

size_t CountOf(const ReferenceProfile& profile, const std::string& gram) {
  auto it = profile.find(gram);
  return it == profile.end() ? 0 : it->second;
}

double ReferenceQgram(const std::string& a, const std::string& b) {
  const ReferenceProfile pa = ReferenceGrams(a);
  const ReferenceProfile pb = ReferenceGrams(b);
  double distance = 0.0;
  for (const auto& [gram, count_a] : pa) {
    distance += std::abs(static_cast<double>(count_a) -
                         static_cast<double>(CountOf(pb, gram)));
  }
  for (const auto& [gram, count_b] : pb) {
    if (CountOf(pa, gram) == 0) distance += static_cast<double>(count_b);
  }
  return distance;
}

double ReferenceCosine(const std::string& a, const std::string& b) {
  const ReferenceProfile pa = ReferenceGrams(a);
  const ReferenceProfile pb = ReferenceGrams(b);
  if (pa.empty() && pb.empty()) return 0.0;
  if (pa.empty() || pb.empty()) return 1.0;
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (const auto& [gram, count_a] : pa) {
    norm_a += static_cast<double>(count_a) * static_cast<double>(count_a);
    dot += static_cast<double>(count_a) *
           static_cast<double>(CountOf(pb, gram));
  }
  for (const auto& [gram, count_b] : pb) {
    norm_b += static_cast<double>(count_b) * static_cast<double>(count_b);
  }
  return 1.0 - dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double ReferenceJaccard(const std::string& a, const std::string& b) {
  const ReferenceProfile pa = ReferenceGrams(a);
  const ReferenceProfile pb = ReferenceGrams(b);
  if (pa.empty() && pb.empty()) return 0.0;
  if (pa.empty() || pb.empty()) return 1.0;
  size_t intersection = 0;
  for (const auto& [gram, count_a] : pa) {
    if (CountOf(pb, gram) > 0) ++intersection;
  }
  const size_t unions = pa.size() + pb.size() - intersection;
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(unions);
}

// Scanning Jaro-Winkler distance (prefix scale 0.1, prefix up to 4).
double ReferenceJaroWinklerDistance(const std::string& a,
                                    const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  double jaro = 0.0;
  if (n == 0 && m == 0) {
    jaro = 1.0;
  } else if (n > 0 && m > 0) {
    const size_t longest = std::max(n, m);
    const size_t window = longest <= 1 ? 0 : longest / 2 - 1;
    std::vector<char> a_used(n, 0);
    std::vector<char> b_used(m, 0);
    size_t matches = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t lo = i > window ? i - window : 0;
      for (size_t j = lo; j < m && j <= i + window; ++j) {
        if (!b_used[j] && a[i] == b[j]) {
          a_used[i] = b_used[j] = 1;
          ++matches;
          break;
        }
      }
    }
    if (matches > 0) {
      std::string a_seq;
      std::string b_seq;
      for (size_t i = 0; i < n; ++i) {
        if (a_used[i]) a_seq.push_back(a[i]);
      }
      for (size_t j = 0; j < m; ++j) {
        if (b_used[j]) b_seq.push_back(b[j]);
      }
      size_t transpositions = 0;
      for (size_t k = 0; k < matches; ++k) {
        if (a_seq[k] != b_seq[k]) ++transpositions;
      }
      const double mm = static_cast<double>(matches);
      jaro = (mm / static_cast<double>(n) + mm / static_cast<double>(m) +
              (mm - static_cast<double>(transpositions) / 2.0) / mm) /
             3.0;
    }
  }
  size_t prefix = 0;
  while (prefix < std::min({n, m, size_t{4}}) && a[prefix] == b[prefix]) {
    ++prefix;
  }
  return 1.0 - (jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro));
}

// Reference full Damerau-Levenshtein: BFS in string space from `a`,
// applying insert/delete/substitute/adjacent-transpose, bounded by the
// Levenshtein distance (an upper bound on DL). Feasible for tiny strings.
size_t ReferenceDamerauLevenshtein(const std::string& a,
                                   const std::string& b,
                                   const std::string& alphabet) {
  if (a == b) return 0;
  size_t bound = ReferenceLevenshtein(a, b);
  std::map<std::string, size_t> distance{{a, 0}};
  std::queue<std::string> frontier;
  frontier.push(a);
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop();
    size_t dist = distance[current];
    if (dist >= bound) continue;
    auto visit = [&](const std::string& next) {
      auto it = distance.find(next);
      if (it == distance.end() || it->second > dist + 1) {
        distance[next] = dist + 1;
        if (next == b) {
          bound = std::min(bound, dist + 1);
        }
        frontier.push(next);
      }
    };
    // Deletions.
    for (size_t i = 0; i < current.size(); ++i) {
      visit(current.substr(0, i) + current.substr(i + 1));
    }
    // Insertions (bounded length keeps the search finite).
    if (current.size() < b.size() + 1) {
      for (size_t i = 0; i <= current.size(); ++i) {
        for (char c : alphabet) {
          visit(current.substr(0, i) + c + current.substr(i));
        }
      }
    }
    // Substitutions.
    for (size_t i = 0; i < current.size(); ++i) {
      for (char c : alphabet) {
        if (current[i] != c) {
          std::string next = current;
          next[i] = c;
          visit(next);
        }
      }
    }
    // Adjacent transpositions.
    for (size_t i = 0; i + 1 < current.size(); ++i) {
      std::string next = current;
      std::swap(next[i], next[i + 1]);
      visit(next);
    }
  }
  auto it = distance.find(b);
  return it == distance.end() ? bound : it->second;
}

TEST(ExhaustiveMetricsTest, LevenshteinMatchesReference) {
  auto strings = AllStrings("ab", 4);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(Levenshtein(a, b), ReferenceLevenshtein(a, b))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ExhaustiveMetricsTest, DamerauLevenshteinMatchesReference) {
  const std::string alphabet = "ab";
  auto strings = AllStrings(alphabet, 3);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(DamerauLevenshtein(a, b),
                ReferenceDamerauLevenshtein(a, b, alphabet))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ExhaustiveMetricsTest, OsaBetweenDlAndLevenshtein) {
  auto strings = AllStrings("abc", 3);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      size_t osa = OptimalStringAlignment(a, b);
      EXPECT_LE(DamerauLevenshtein(a, b), osa);
      EXPECT_LE(osa, Levenshtein(a, b));
    }
  }
}

TEST(ExhaustiveMetricsTest, OsaMatchesReference) {
  auto strings = AllStrings("abc", 3);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(OptimalStringAlignment(a, b), ReferenceOsa(a, b))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ExhaustiveMetricsTest, LcsMatchesReference) {
  auto strings = AllStrings("ab", 4);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(LongestCommonSubsequence(a, b), ReferenceLcs(a, b))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ExhaustiveMetricsTest, QgramTrioMatchesReference) {
  auto strings = AllStrings("ab", 5);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(ThreeGramDistance(a, b), ReferenceQgram(a, b))
          << "'" << a << "' vs '" << b << "'";
      EXPECT_EQ(std::bit_cast<uint64_t>(ThreeGramCosineDistance(a, b)),
                std::bit_cast<uint64_t>(ReferenceCosine(a, b)))
          << "'" << a << "' vs '" << b << "'";
      EXPECT_EQ(std::bit_cast<uint64_t>(ThreeGramJaccardDistance(a, b)),
                std::bit_cast<uint64_t>(ReferenceJaccard(a, b)))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(ExhaustiveMetricsTest, LcsDistanceMatchesDefinition) {
  auto strings = AllStrings("ab", 4);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      EXPECT_EQ(LcsDistance(a, b),
                a.size() + b.size() - 2 * LongestCommonSubsequence(a, b));
    }
  }
}

// Seeded random string pairs over all 256 byte values (NUL and bytes >=
// 0x80 included). Lengths run 0-130 so both sides of the 64-byte switch
// are hit, with extra weight at 63-65. The alphabet is drawn per pair, from
// 2 bytes up to all 256, and `b` is often an edit of `a`, so that the
// distances are neither all-equal nor all-disjoint.
class RandomPairs {
 public:
  explicit RandomPairs(uint64_t seed) : engine_(seed) {}

  size_t Below(size_t bound) { return static_cast<size_t>(engine_() % bound); }

  size_t Length() {
    switch (Below(4)) {
      case 0:
        return 63 + Below(3);
      case 1:
        return Below(12);
      default:
        return Below(131);
    }
  }

  std::string String(const std::string& alphabet, size_t length) {
    std::string s;
    for (size_t i = 0; i < length; ++i) {
      s.push_back(alphabet[Below(alphabet.size())]);
    }
    return s;
  }

  std::pair<std::string, std::string> Next() {
    static constexpr size_t kAlphabetSizes[] = {2, 3, 8, 26, 256};
    const size_t size = kAlphabetSizes[Below(std::size(kAlphabetSizes))];
    std::string alphabet;
    if (size == 256) {
      for (int c = 0; c < 256; ++c) alphabet.push_back(static_cast<char>(c));
    } else {
      for (size_t i = 0; i < size; ++i) {
        alphabet.push_back(static_cast<char>(Below(256)));
      }
    }
    std::string a = String(alphabet, Length());
    if (Below(2) == 0) return {a, String(alphabet, Length())};
    // An edit of `a`: substitutions, insertions, deletions and adjacent
    // swaps, capped at 130 bytes.
    std::string b = a;
    const size_t edits = Below(8);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = b.empty() ? 0 : Below(b.size());
      switch (Below(4)) {
        case 0:
          if (!b.empty()) b[pos] = alphabet[Below(alphabet.size())];
          break;
        case 1:
          if (b.size() < 130) {
            b.insert(b.begin() + pos, alphabet[Below(alphabet.size())]);
          }
          break;
        case 2:
          if (!b.empty()) b.erase(b.begin() + pos);
          break;
        default:
          if (pos + 1 < b.size()) std::swap(b[pos], b[pos + 1]);
          break;
      }
    }
    return Below(2) == 0 ? std::pair{a, b} : std::pair{b, a};
  }

 private:
  std::mt19937_64 engine_;
};

constexpr int kRandomPairs = 3000;

std::string Describe(const std::string& a, const std::string& b) {
  std::string out = "|a|=" + std::to_string(a.size()) +
                    " |b|=" + std::to_string(b.size()) + " a=";
  for (unsigned char c : a) out += std::to_string(c) + ",";
  out += " b=";
  for (unsigned char c : b) out += std::to_string(c) + ",";
  return out;
}

TEST(DifferentialMetricsTest, EditDistancesMatchFullMatrixReferences) {
  RandomPairs random(20211);
  size_t fast = 0;
  size_t fallback = 0;
  for (int k = 0; k < kRandomPairs; ++k) {
    auto [a, b] = random.Next();
    (std::min(a.size(), b.size()) <= 64 ? fast : fallback)++;
    ASSERT_EQ(Levenshtein(a, b), ReferenceLevenshtein(a, b))
        << Describe(a, b);
    ASSERT_EQ(OptimalStringAlignment(a, b), ReferenceOsa(a, b))
        << Describe(a, b);
    ASSERT_EQ(DamerauLevenshtein(a, b), ReferenceDamerauLevenshteinDp(a, b))
        << Describe(a, b);
    ASSERT_EQ(LcsDistance(a, b), a.size() + b.size() - 2 * ReferenceLcs(a, b))
        << Describe(a, b);
  }
  // Both kernels were exercised.
  EXPECT_GT(fast, static_cast<size_t>(kRandomPairs) / 2);
  EXPECT_GT(fallback, static_cast<size_t>(kRandomPairs) / 20);
}

TEST(DifferentialMetricsTest, GramDistancesMatchHashMapReferences) {
  RandomPairs random(20212);
  for (int k = 0; k < kRandomPairs; ++k) {
    auto [a, b] = random.Next();
    ASSERT_EQ(ThreeGramDistance(a, b), ReferenceQgram(a, b)) << Describe(a, b);
    ASSERT_EQ(std::bit_cast<uint64_t>(ThreeGramCosineDistance(a, b)),
              std::bit_cast<uint64_t>(ReferenceCosine(a, b)))
        << Describe(a, b);
    ASSERT_EQ(std::bit_cast<uint64_t>(ThreeGramJaccardDistance(a, b)),
              std::bit_cast<uint64_t>(ReferenceJaccard(a, b)))
        << Describe(a, b);
  }
}

TEST(DifferentialMetricsTest, JaroWinklerMatchesScanningReference) {
  RandomPairs random(20213);
  for (int k = 0; k < kRandomPairs; ++k) {
    auto [a, b] = random.Next();
    ASSERT_EQ(std::bit_cast<uint64_t>(JaroWinklerDistance(a, b)),
              std::bit_cast<uint64_t>(ReferenceJaroWinklerDistance(a, b)))
        << Describe(a, b);
  }
}

TEST(DifferentialMetricsTest, GramProfileCountsMatchHashMapReference) {
  RandomPairs random(20214);
  for (int k = 0; k < 500; ++k) {
    const std::string a = random.Next().first;
    const GramProfile profile(a, kQgramSize);
    const ReferenceProfile reference = ReferenceGrams(a);
    ASSERT_EQ(profile.total(), a.size() < 3 ? 0 : a.size() - 2);
    ASSERT_EQ(profile.distinct(), reference.size());
    for (const auto& [gram, count] : reference) {
      ASSERT_EQ(profile.count(gram), count) << Describe(a, gram);
    }
  }
}

}  // namespace
}  // namespace leapme::text
