#include "text/ngram.h"

#include <gtest/gtest.h>

namespace leapme::text {
namespace {

TEST(NgramProfileTest, CountsTrigrams) {
  GramProfile profile("abcab", 3);
  // Grams: abc, bca, cab.
  EXPECT_EQ(profile.total(), 3u);
  EXPECT_EQ(profile.distinct(), 3u);
  EXPECT_EQ(profile.count("abc"), 1u);
  EXPECT_EQ(profile.count("bca"), 1u);
  EXPECT_EQ(profile.count("cab"), 1u);
  EXPECT_EQ(profile.count("xyz"), 0u);
}

TEST(NgramProfileTest, Multiplicities) {
  GramProfile profile("aaaa", 2);
  EXPECT_EQ(profile.total(), 3u);
  EXPECT_EQ(profile.distinct(), 1u);
  EXPECT_EQ(profile.count("aa"), 3u);
}

TEST(NgramProfileTest, ShortStringHasNoGrams) {
  GramProfile profile("ab", 3);
  EXPECT_EQ(profile.total(), 0u);
  EXPECT_EQ(profile.distinct(), 0u);
}

TEST(NgramProfileTest, GramSizeOne) {
  GramProfile profile("aba", 1);
  EXPECT_EQ(profile.total(), 3u);
  EXPECT_EQ(profile.count("a"), 2u);
  EXPECT_EQ(profile.count("b"), 1u);
}

TEST(QgramDistanceTest, IdenticalStringsZero) {
  GramProfile a("resolution", 3);
  EXPECT_DOUBLE_EQ(QgramDistance(a, a), 0.0);
}

TEST(QgramDistanceTest, DisjointStringsSumOfTotals) {
  GramProfile a("abcd", 3);  // abc, bcd
  GramProfile b("wxyz", 3);  // wxy, xyz
  EXPECT_DOUBLE_EQ(QgramDistance(a, b), 4.0);
}

TEST(QgramDistanceTest, Symmetric) {
  GramProfile a("screen size", 3);
  GramProfile b("screen resolution", 3);
  EXPECT_DOUBLE_EQ(QgramDistance(a, b), QgramDistance(b, a));
}

TEST(CosineDistanceTest, IdenticalZeroDisjointOne) {
  GramProfile a("display", 3);
  GramProfile b("display", 3);
  GramProfile c("qwzxrv", 3);
  EXPECT_NEAR(CosineDistance(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineDistance(a, c), 1.0, 1e-9);
}

TEST(CosineDistanceTest, EmptyProfiles) {
  GramProfile empty("", 3);
  GramProfile non_empty("abcdef", 3);
  EXPECT_DOUBLE_EQ(CosineDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(empty, non_empty), 1.0);
  EXPECT_DOUBLE_EQ(CosineDistance(non_empty, empty), 1.0);
}

TEST(CosineDistanceTest, WithinUnitInterval) {
  GramProfile a("optical zoom", 3);
  GramProfile b("digital zoom", 3);
  double d = CosineDistance(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(JaccardDistanceTest, IdenticalZeroDisjointOne) {
  GramProfile a("weight", 3);
  GramProfile b("weight", 3);
  GramProfile c("qqqqqq", 3);
  EXPECT_DOUBLE_EQ(JaccardDistance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(a, c), 1.0);
}

TEST(JaccardDistanceTest, EmptyProfiles) {
  GramProfile empty("ab", 3);
  GramProfile non_empty("abcdef", 3);
  EXPECT_DOUBLE_EQ(JaccardDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(empty, non_empty), 1.0);
}

TEST(JaccardDistanceTest, KnownValue) {
  // "abcd" -> {abc, bcd}; "abce" -> {abc, bce}; intersection 1, union 3.
  GramProfile a("abcd", 3);
  GramProfile b("abce", 3);
  EXPECT_NEAR(JaccardDistance(a, b), 1.0 - 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace leapme::text
