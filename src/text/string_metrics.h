#ifndef LEAPME_TEXT_STRING_METRICS_H_
#define LEAPME_TEXT_STRING_METRICS_H_

#include <cstddef>
#include <string_view>

namespace leapme::text {

/// String distances of Table I (ids 8-15). Semantics follow the R
/// `stringdist` package used by the paper's implementation; q-gram based
/// distances use gram size 3 by default ("3-gram distance" in the paper).
///
/// Each metric has one implementation, chosen by input length: when the
/// shorter string has at most 64 bytes, Levenshtein and OSA run Hyyrö's
/// bit-vector algorithm and the LCS the Allison-Dix bit-vector
/// recurrence; when both have at most 64 bytes, Jaro matches over 64-bit
/// masks. Longer inputs take the textbook DP or scan. Both paths return
/// the same integers, so every result is the same either way.

/// Gram size of the ThreeGram* distances.
inline constexpr size_t kQgramSize = 3;

/// Levenshtein edit distance (insert / delete / substitute), Table I id 9.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Optimal string alignment distance, Table I id 8: Levenshtein plus
/// adjacent transposition, with the restriction that no substring is edited
/// more than once ("restricted Damerau-Levenshtein").
size_t OptimalStringAlignment(std::string_view a, std::string_view b);

/// Full (unrestricted) Damerau-Levenshtein distance, Table I id 10.
size_t DamerauLevenshtein(std::string_view a, std::string_view b);

/// Longest-common-subsequence edit distance, Table I id 11:
/// |a| + |b| - 2 * LCS(a, b) (only insertions and deletions allowed).
size_t LcsDistance(std::string_view a, std::string_view b);

/// Length of the longest common subsequence of `a` and `b`.
size_t LongestCommonSubsequence(std::string_view a, std::string_view b);

/// Q-gram distance between the 3-gram profiles, Table I id 12.
double ThreeGramDistance(std::string_view a, std::string_view b);

/// Cosine distance between the 3-gram profiles, Table I id 13. In [0, 1].
double ThreeGramCosineDistance(std::string_view a, std::string_view b);

/// Jaccard distance between the 3-gram profiles, Table I id 14. In [0, 1].
double ThreeGramJaccardDistance(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1] (1 = equal).
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with prefix scale `p` (default 0.1, max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

/// Jaro-Winkler distance = 1 - similarity, Table I id 15. In [0, 1].
double JaroWinklerDistance(std::string_view a, std::string_view b,
                           double prefix_scale = 0.1);

/// Edit-style distance divided by max(|a|, |b|) so it lands in [0, 1]
/// (0 for two empty strings). Used to keep NN feature scales comparable.
double NormalizedByMaxLength(size_t distance, std::string_view a,
                             std::string_view b);

}  // namespace leapme::text

#endif  // LEAPME_TEXT_STRING_METRICS_H_
