#include "data/generator.h"

#include <set>

#include <gtest/gtest.h>

#include "data/domain.h"
#include "tests/data/domain_printer.h"

namespace leapme::data {
namespace {

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.num_sources = 4;
  options.min_entities_per_source = 10;
  options.max_entities_per_source = 10;
  options.seed = 99;
  return options;
}

TEST(GeneratorTest, ProducesRequestedSources) {
  auto dataset = GenerateCatalog(CameraDomain(), SmallOptions());
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->source_count(), 4u);
  EXPECT_GT(dataset->property_count(), 20u);
  EXPECT_GT(dataset->instance_count(), 100u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto a = GenerateCatalog(HeadphoneDomain(), SmallOptions());
  auto b = GenerateCatalog(HeadphoneDomain(), SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->property_count(), b->property_count());
  for (PropertyId id = 0; id < a->property_count(); ++id) {
    EXPECT_EQ(a->property(id).name, b->property(id).name);
    ASSERT_EQ(a->instances(id).size(), b->instances(id).size());
    for (size_t i = 0; i < a->instances(id).size(); ++i) {
      EXPECT_EQ(a->instances(id)[i].value, b->instances(id)[i].value);
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions other = SmallOptions();
  other.seed = 1234;
  auto a = GenerateCatalog(PhoneDomain(), SmallOptions());
  auto b = GenerateCatalog(PhoneDomain(), other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Some property set or instance content must differ.
  bool differs = a->property_count() != b->property_count();
  if (!differs) {
    for (PropertyId id = 0; id < a->property_count() && !differs; ++id) {
      differs = a->property(id).name != b->property(id).name;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(GeneratorTest, PropertyNamesUniqueWithinSource) {
  auto dataset = GenerateCatalog(TvDomain(), SmallOptions());
  ASSERT_TRUE(dataset.ok());
  for (SourceId s = 0; s < dataset->source_count(); ++s) {
    std::set<std::string> names;
    for (PropertyId id : dataset->PropertiesOfSource(s)) {
      EXPECT_TRUE(names.insert(dataset->property(id).name).second)
          << "duplicate name in source " << s << ": "
          << dataset->property(id).name;
    }
  }
}

TEST(GeneratorTest, GroundTruthHasMatchingPairs) {
  auto dataset = GenerateCatalog(CameraDomain(), SmallOptions());
  ASSERT_TRUE(dataset.ok());
  EXPECT_GT(dataset->CountMatchingPairs(), 20u);
}

TEST(GeneratorTest, SharedUniverseCreatesValueOverlap) {
  // Two sources listing the same product report the same model code, so
  // matching code properties must share at least one exact value.
  GeneratorOptions options = SmallOptions();
  options.num_sources = 2;
  options.min_entities_per_source = 40;
  options.max_entities_per_source = 40;
  options.universe_entities = 50;  // high overlap
  auto dataset = GenerateCatalog(CameraDomain(), options);
  ASSERT_TRUE(dataset.ok());
  // Find the "model" property in both sources.
  std::vector<PropertyId> model_props;
  for (PropertyId id = 0; id < dataset->property_count(); ++id) {
    if (dataset->property(id).reference == "model") {
      model_props.push_back(id);
    }
  }
  if (model_props.size() == 2) {
    std::set<std::string> values_a;
    for (const auto& instance : dataset->instances(model_props[0])) {
      values_a.insert(instance.value);
    }
    size_t shared = 0;
    for (const auto& instance : dataset->instances(model_props[1])) {
      if (values_a.count(instance.value) > 0) ++shared;
    }
    EXPECT_GT(shared, 0u);
  }
}

TEST(GeneratorTest, EntitiesComeFromSharedUniverse) {
  GeneratorOptions options = SmallOptions();
  options.universe_entities = 15;
  auto dataset = GenerateCatalog(HeadphoneDomain(), options);
  ASSERT_TRUE(dataset.ok());
  std::set<std::string> entities;
  for (PropertyId id = 0; id < dataset->property_count(); ++id) {
    for (const auto& instance : dataset->instances(id)) {
      entities.insert(instance.entity);
    }
  }
  EXPECT_LE(entities.size(), 15u);
}

TEST(GeneratorTest, ImbalancedOptionsVaryEntityCounts) {
  GeneratorOptions options = LowQualityOptions(6);
  options.seed = 5;
  auto dataset = GenerateCatalog(PhoneDomain(), options);
  ASSERT_TRUE(dataset.ok());
  // Count per-source entities; min and max should differ notably.
  std::set<std::string> per_source_min_check;
  size_t min_count = SIZE_MAX;
  size_t max_count = 0;
  for (SourceId s = 0; s < dataset->source_count(); ++s) {
    std::set<std::string> entities;
    for (PropertyId id : dataset->PropertiesOfSource(s)) {
      for (const auto& instance : dataset->instances(id)) {
        entities.insert(instance.entity);
      }
    }
    min_count = std::min(min_count, entities.size());
    max_count = std::max(max_count, entities.size());
  }
  EXPECT_LT(min_count, max_count);
}

TEST(GeneratorTest, RejectsInvalidOptions) {
  GeneratorOptions one_source = SmallOptions();
  one_source.num_sources = 1;
  EXPECT_FALSE(GenerateCatalog(CameraDomain(), one_source).ok());

  GeneratorOptions zero_entities = SmallOptions();
  zero_entities.min_entities_per_source = 0;
  EXPECT_FALSE(GenerateCatalog(CameraDomain(), zero_entities).ok());

  GeneratorOptions inverted = SmallOptions();
  inverted.min_entities_per_source = 50;
  inverted.max_entities_per_source = 10;
  EXPECT_FALSE(GenerateCatalog(CameraDomain(), inverted).ok());

  GeneratorOptions tiny_universe = SmallOptions();
  tiny_universe.universe_entities = 2;
  EXPECT_FALSE(GenerateCatalog(CameraDomain(), tiny_universe).ok());

  DomainSpec empty_domain;
  empty_domain.name = "empty";
  EXPECT_FALSE(GenerateCatalog(empty_domain, SmallOptions()).ok());
}

TEST(GeneratorTest, HighQualityOptionsAreBalanced) {
  GeneratorOptions options = HighQualityOptions(24, 100);
  EXPECT_EQ(options.num_sources, 24u);
  EXPECT_EQ(options.min_entities_per_source,
            options.max_entities_per_source);
}

TEST(GeneratorTest, LowQualityOptionsAreImbalancedAndNoisier) {
  GeneratorOptions low = LowQualityOptions();
  GeneratorOptions high = HighQualityOptions();
  EXPECT_LT(low.min_entities_per_source, low.max_entities_per_source);
  EXPECT_GT(low.value_noise_probability, high.value_noise_probability);
  EXPECT_GT(low.homonym_probability, high.homonym_probability);
}

TEST(BooleanStylesTest, NonEmptyDistinctPairs) {
  const auto& styles = BooleanStyles();
  EXPECT_GE(styles.size(), 3u);
  for (const auto& [yes, no] : styles) {
    EXPECT_FALSE(yes.empty());
    EXPECT_FALSE(no.empty());
    EXPECT_NE(yes, no);
  }
}

// Property sweep over all four domains: generation invariants that must
// hold regardless of the ontology content.
class GeneratorDomainPropertyTest
    : public ::testing::TestWithParam<const DomainSpec*> {};

TEST_P(GeneratorDomainPropertyTest, GeneratesValidatableDataset) {
  GeneratorOptions options = SmallOptions();
  auto dataset = GenerateCatalog(*GetParam(), options);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_TRUE(dataset->Validate().ok());
}

TEST_P(GeneratorDomainPropertyTest, AlignedPropertiesReferenceTheDomain) {
  auto dataset = GenerateCatalog(*GetParam(), SmallOptions());
  ASSERT_TRUE(dataset.ok());
  std::set<std::string> known;
  for (const ReferenceProperty& property : GetParam()->properties) {
    known.insert(property.reference);
  }
  for (PropertyId id = 0; id < dataset->property_count(); ++id) {
    const std::string& reference = dataset->property(id).reference;
    if (!reference.empty()) {
      EXPECT_TRUE(known.count(reference) > 0) << reference;
    }
  }
}

TEST_P(GeneratorDomainPropertyTest, NonEmptyValuesEverywhere) {
  auto dataset = GenerateCatalog(*GetParam(), SmallOptions());
  ASSERT_TRUE(dataset.ok());
  for (PropertyId id = 0; id < dataset->property_count(); ++id) {
    for (const InstanceValue& instance : dataset->instances(id)) {
      EXPECT_FALSE(instance.value.empty());
      EXPECT_FALSE(instance.entity.empty());
    }
  }
}

TEST_P(GeneratorDomainPropertyTest, MatchingPairsShareReference) {
  auto dataset = GenerateCatalog(*GetParam(), SmallOptions());
  ASSERT_TRUE(dataset.ok());
  size_t checked = 0;
  for (PropertyId a = 0; a < dataset->property_count() && checked < 500;
       ++a) {
    for (PropertyId b = a + 1; b < dataset->property_count(); ++b) {
      if (dataset->IsMatch(a, b)) {
        EXPECT_EQ(dataset->property(a).reference,
                  dataset->property(b).reference);
        EXPECT_NE(dataset->property(a).source, dataset->property(b).source);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, GeneratorDomainPropertyTest,
                         ::testing::ValuesIn(AllDomains()),
                         [](const auto& info) { return info.param->name; });

}  // namespace
}  // namespace leapme::data
