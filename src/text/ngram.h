#ifndef LEAPME_TEXT_NGRAM_H_
#define LEAPME_TEXT_NGRAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace leapme::text {

/// Bag of character n-grams with multiplicities ("q-gram profile"), kept
/// as a sorted vector of packed gram keys in which a repeated key stands
/// for its count. Profiles back the q-gram, cosine and Jaccard distances
/// of Table I (ids 12-14), following the semantics of the R `stringdist`
/// package the paper's implementation relies on: no padding; a string
/// shorter than `n` contributes no n-grams.
///
/// A key packs the gram's bytes big-endian into 32 bits, so it holds
/// grams of up to kMaxGramSize bytes and key order is byte-wise
/// lexicographic gram order. The profile costs 4 bytes per gram, which is
/// what lets FeaturePipeline keep one per property name.
class GramProfile {
 public:
  static constexpr size_t kMaxGramSize = 4;

  /// The empty profile (gram size 0).
  GramProfile() = default;

  /// Builds the profile of `text` with gram size `n` (n <= kMaxGramSize;
  /// n = 0 gives the empty profile).
  GramProfile(std::string_view text, size_t n);

  size_t gram_size() const { return gram_size_; }

  /// Total number of grams (sum of multiplicities).
  size_t total() const { return keys_.size(); }

  /// Number of distinct grams.
  size_t distinct() const;

  /// Multiplicity of `gram` (0 when absent or not gram_size() bytes long).
  size_t count(std::string_view gram) const;

  /// The sorted packed keys, one per gram occurrence.
  std::span<const uint32_t> keys() const { return keys_; }

 private:
  uint8_t gram_size_ = 0;
  std::vector<uint32_t> keys_;
};

/// Sum over all grams of |count_a - count_b| (the stringdist "qgram"
/// distance). Two strings both shorter than the gram size have distance 0.
double QgramDistance(const GramProfile& a, const GramProfile& b);

/// 1 - cosine similarity between the gram count vectors. Returns 0 for two
/// empty profiles and 1 when exactly one profile is empty.
double CosineDistance(const GramProfile& a, const GramProfile& b);

/// 1 - |A ∩ B| / |A ∪ B| over the distinct gram sets. Returns 0 for two
/// empty profiles and 1 when exactly one profile is empty.
double JaccardDistance(const GramProfile& a, const GramProfile& b);

}  // namespace leapme::text

#endif  // LEAPME_TEXT_NGRAM_H_
