#include "data/domain.h"

#include <set>

#include <gtest/gtest.h>

#include "tests/data/domain_printer.h"

namespace leapme::data {
namespace {

TEST(DomainTest, SixDomainsExist) {
  auto domains = AllDomains();
  ASSERT_EQ(domains.size(), 6u);
  EXPECT_EQ(domains[0]->name, "cameras");
  EXPECT_EQ(domains[1]->name, "headphones");
  EXPECT_EQ(domains[2]->name, "phones");
  EXPECT_EQ(domains[3]->name, "tvs");
  EXPECT_EQ(domains[4]->name, "groceries");
  EXPECT_EQ(domains[5]->name, "autos");
}

TEST(DomainTest, CamerasIsTheLargestDomain) {
  // Cameras is the paper's largest dataset (DI2KG, >3200 properties).
  for (const DomainSpec* domain : AllDomains()) {
    EXPECT_LE(domain->properties.size(), CameraDomain().properties.size());
  }
  EXPECT_GE(CameraDomain().properties.size(), 30u);
}

// Structural invariants every domain must satisfy.
class DomainInvariantsTest
    : public ::testing::TestWithParam<const DomainSpec*> {};

TEST_P(DomainInvariantsTest, PropertiesNonEmptyWithUniqueReferences) {
  const DomainSpec& domain = *GetParam();
  EXPECT_GE(domain.properties.size(), 15u);
  std::set<std::string> references;
  for (const ReferenceProperty& property : domain.properties) {
    EXPECT_FALSE(property.reference.empty());
    EXPECT_TRUE(references.insert(property.reference).second)
        << "duplicate reference " << property.reference;
  }
}

TEST_P(DomainInvariantsTest, EveryPropertyHasSurfaceNames) {
  for (const ReferenceProperty& property : GetParam()->properties) {
    EXPECT_GE(property.surface_names.size(), 2u) << property.reference;
    for (const std::string& name : property.surface_names) {
      EXPECT_FALSE(name.empty());
    }
  }
}

TEST_P(DomainInvariantsTest, RatesAreProbabilities) {
  for (const ReferenceProperty& property : GetParam()->properties) {
    EXPECT_GT(property.source_prevalence, 0.0);
    EXPECT_LE(property.source_prevalence, 1.0);
    EXPECT_GT(property.fill_rate, 0.0);
    EXPECT_LE(property.fill_rate, 1.0);
  }
}

TEST_P(DomainInvariantsTest, NumericSpecsHaveValidRanges) {
  for (const ReferenceProperty& property : GetParam()->properties) {
    if (const auto* numeric =
            std::get_if<NumericValueSpec>(&property.value)) {
      EXPECT_LT(numeric->min, numeric->max) << property.reference;
      EXPECT_GE(numeric->decimals, 0);
    }
    if (const auto* enumeration =
            std::get_if<EnumValueSpec>(&property.value)) {
      EXPECT_GE(enumeration->values.size(), 2u) << property.reference;
      for (const auto& renderings : enumeration->values) {
        EXPECT_FALSE(renderings.empty());
      }
    }
  }
}

TEST_P(DomainInvariantsTest, HasDecorationPools) {
  EXPECT_FALSE(GetParam()->decoration_prefixes.empty());
  EXPECT_FALSE(GetParam()->decoration_suffixes.empty());
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainInvariantsTest,
                         ::testing::ValuesIn(AllDomains()),
                         [](const auto& info) { return info.param->name; });

TEST(DomainClustersTest, OneClusterPerPropertyPlusShared) {
  const DomainSpec& domain = CameraDomain();
  auto clusters = DomainClusters(domain);
  // Property clusters + decorations + booleans.
  EXPECT_EQ(clusters.size(), domain.properties.size() + 2);
}

TEST(DomainClustersTest, ClustersContainSurfaceNameWords) {
  auto clusters = DomainClusters(CameraDomain());
  bool found_resolution = false;
  for (const auto& cluster : clusters) {
    for (const std::string& word : cluster.words) {
      if (word == "megapixels") found_resolution = true;
      EXPECT_FALSE(word.empty());
      // Vocabulary is lower-case.
      for (char c : word) {
        EXPECT_FALSE(c >= 'A' && c <= 'Z');
      }
    }
  }
  EXPECT_TRUE(found_resolution);
}

TEST(DomainClustersTest, NumbersExcludedFromVocabulary) {
  for (const auto& cluster : DomainClusters(PhoneDomain())) {
    for (const std::string& word : cluster.words) {
      bool all_digits = !word.empty();
      for (char c : word) {
        if (c < '0' || c > '9') {
          all_digits = false;
          break;
        }
      }
      EXPECT_FALSE(all_digits) << "numeric token in vocabulary: " << word;
    }
  }
}

TEST(DomainClustersTest, BooleanClusterPresent) {
  auto clusters = DomainClusters(TvDomain());
  bool found = false;
  for (const auto& cluster : clusters) {
    if (cluster.name == "tvs/booleans") {
      found = true;
      EXPECT_GE(cluster.words.size(), 4u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace leapme::data
