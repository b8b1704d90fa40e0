#include "features/feature_pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "embedding/text_embedding_file.h"
#include "text/string_metrics.h"

namespace leapme::features {
namespace {

embedding::TextEmbeddingFile MakeModel() {
  auto model = embedding::TextEmbeddingFile::FromEntries(
      {{"resolution", {1.0f, 0.0f}},
       {"megapixels", {0.9f, 0.1f}},
       {"weight", {0.0f, 1.0f}},
       {"mp", {0.8f, 0.0f}},
       {"g", {0.1f, 0.9f}}});
  return std::move(model).value();
}

std::vector<std::string> Values(std::initializer_list<const char*> values) {
  return {values.begin(), values.end()};
}

TEST(FeaturePipelineTest, Dimensions) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  EXPECT_EQ(pipeline.property_dimension(), 29u + 4u);
  EXPECT_EQ(pipeline.pair_dimension(), 29u + 4u + 8u);
}

TEST(FeaturePipelineTest, ComputePropertyAveragesInstances) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  auto values = Values({"24", "26"});
  PropertyFeatures features =
      pipeline.ComputeProperty("resolution", values);
  EXPECT_EQ(features.name, "resolution");
  // Numeric value slot (28): mean of 24 and 26.
  EXPECT_FLOAT_EQ(features.vector[28], 25.0f);
}

TEST(FeaturePipelineTest, NameEmbeddingBlock) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures features =
      pipeline.ComputeProperty("resolution", no_values);
  size_t name_emb_start = 29 + 2;  // meta + value-embedding (d=2)
  EXPECT_FLOAT_EQ(features.vector[name_emb_start], 1.0f);
  EXPECT_FLOAT_EQ(features.vector[name_emb_start + 1], 0.0f);
}

TEST(FeaturePipelineTest, PropertyWithNoInstancesHasZeroInstanceBlock) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures features = pipeline.ComputeProperty("weight", no_values);
  for (size_t i = 0; i < 29 + 2; ++i) {
    EXPECT_FLOAT_EQ(features.vector[i], 0.0f);
  }
}

TEST(FeaturePipelineTest, MaxInstancesCapRespected) {
  embedding::TextEmbeddingFile model = MakeModel();
  PairFeatureOptions options;
  options.max_instances_per_property = 1;
  FeaturePipeline pipeline(&model, options);
  auto values = Values({"10", "999999"});
  PropertyFeatures features = pipeline.ComputeProperty("x", values);
  EXPECT_FLOAT_EQ(features.vector[28], 10.0f);  // only the first instance
}

TEST(FeaturePipelineTest, PairAbsoluteDifference) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("resolution", no_values);
  PropertyFeatures b = pipeline.ComputeProperty("weight", no_values);
  std::vector<float> ab(pipeline.pair_dimension());
  std::vector<float> ba(pipeline.pair_dimension());
  pipeline.ComputePair(a, b, ab);
  pipeline.ComputePair(b, a, ba);
  // Absolute difference makes the pair features order-independent.
  EXPECT_EQ(ab, ba);
  for (size_t i = 0; i < pipeline.property_dimension(); ++i) {
    EXPECT_GE(ab[i], 0.0f);
  }
}

TEST(FeaturePipelineTest, PairSignedDifferenceOption) {
  embedding::TextEmbeddingFile model = MakeModel();
  PairFeatureOptions options;
  options.absolute_difference = false;
  FeaturePipeline pipeline(&model, options);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("resolution", no_values);
  PropertyFeatures b = pipeline.ComputeProperty("weight", no_values);
  std::vector<float> ab(pipeline.pair_dimension());
  std::vector<float> ba(pipeline.pair_dimension());
  pipeline.ComputePair(a, b, ab);
  pipeline.ComputePair(b, a, ba);
  size_t name_emb_start = 29 + 2;
  EXPECT_FLOAT_EQ(ab[name_emb_start], -ba[name_emb_start]);
}

TEST(FeaturePipelineTest, IdenticalPropertiesHaveZeroDiffAndDistances) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  auto values = Values({"24 mp"});
  PropertyFeatures a = pipeline.ComputeProperty("resolution", values);
  std::vector<float> features(pipeline.pair_dimension());
  pipeline.ComputePair(a, a, features);
  for (float value : features) {
    EXPECT_NEAR(value, 0.0f, 1e-6f);
  }
}

TEST(FeaturePipelineTest, StringDistancesNormalizedToUnitInterval) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("resolution", no_values);
  PropertyFeatures b =
      pipeline.ComputeProperty("completely different name", no_values);
  std::vector<float> features(pipeline.pair_dimension());
  pipeline.ComputePair(a, b, features);
  for (size_t i = pipeline.property_dimension();
       i < pipeline.pair_dimension(); ++i) {
    EXPECT_GE(features[i], 0.0f);
    EXPECT_LE(features[i], 1.0f + 1e-6);
  }
}

TEST(FeaturePipelineTest, UnnormalizedDistancesOption) {
  embedding::TextEmbeddingFile model = MakeModel();
  PairFeatureOptions options;
  options.normalize_string_distances = false;
  FeaturePipeline pipeline(&model, options);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("abc", no_values);
  PropertyFeatures b = pipeline.ComputeProperty("xyz1234567", no_values);
  std::vector<float> features(pipeline.pair_dimension());
  pipeline.ComputePair(a, b, features);
  // Raw Levenshtein distance of 3-char vs 10-char disjoint strings is 10.
  EXPECT_FLOAT_EQ(features[pipeline.property_dimension() + 1], 10.0f);
}

TEST(FeaturePipelineTest, SimilarNamesCloserThanDifferentInEmbeddings) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures resolution =
      pipeline.ComputeProperty("resolution", no_values);
  PropertyFeatures megapixels =
      pipeline.ComputeProperty("megapixels", no_values);
  PropertyFeatures weight = pipeline.ComputeProperty("weight", no_values);

  std::vector<float> synonym_pair(pipeline.pair_dimension());
  std::vector<float> stranger_pair(pipeline.pair_dimension());
  pipeline.ComputePair(resolution, megapixels, synonym_pair);
  pipeline.ComputePair(resolution, weight, stranger_pair);

  size_t name_emb_start = 29 + 2;
  double synonym_norm = 0.0;
  double stranger_norm = 0.0;
  for (size_t i = name_emb_start; i < name_emb_start + 2; ++i) {
    synonym_norm += synonym_pair[i] * synonym_pair[i];
    stranger_norm += stranger_pair[i] * stranger_pair[i];
  }
  EXPECT_LT(synonym_norm, stranger_norm);
}

TEST(FeaturePipelineTest, BuildDesignMatrixGathersColumns) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("resolution", no_values);
  PropertyFeatures b = pipeline.ComputeProperty("weight", no_values);

  std::vector<const PropertyFeatures*> lhs{&a, &a};
  std::vector<const PropertyFeatures*> rhs{&b, &a};
  std::vector<size_t> columns{0, 28, pipeline.pair_dimension() - 1};
  nn::Matrix design = pipeline.BuildDesignMatrix(lhs, rhs, columns);
  EXPECT_EQ(design.rows(), 2u);
  EXPECT_EQ(design.cols(), 3u);
  // Second row is the identical pair: all-zero gathered features.
  EXPECT_FLOAT_EQ(design(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(design(1, 2), 0.0f);
}

TEST(FeaturePipelineTest, BuildDesignMatrixEmptyColumnsKeepsAll) {
  embedding::TextEmbeddingFile model = MakeModel();
  FeaturePipeline pipeline(&model);
  std::vector<std::string> no_values;
  PropertyFeatures a = pipeline.ComputeProperty("x", no_values);
  std::vector<const PropertyFeatures*> lhs{&a};
  std::vector<const PropertyFeatures*> rhs{&a};
  nn::Matrix design = pipeline.BuildDesignMatrix(lhs, rhs, {});
  EXPECT_EQ(design.cols(), pipeline.pair_dimension());
}

// The string-distance slots, computed on the prepared names (bytes plus
// 3-gram profiles), equal the public string_view metrics bit for bit, on
// seeded random names of 0-130 bytes over all 256 byte values.
TEST(FeaturePipelineTest, StringDistanceSlotsMatchPublicMetrics) {
  embedding::TextEmbeddingFile model = MakeModel();
  std::mt19937_64 engine(31);
  auto random_name = [&] {
    const size_t length = static_cast<size_t>(engine() % 131);
    const unsigned alphabet = engine() % 2 == 0 ? 4 : 256;
    std::string name;
    for (size_t i = 0; i < length; ++i) {
      name.push_back(static_cast<char>(engine() % alphabet));
    }
    return name;
  };
  for (bool normalize : {true, false}) {
    PairFeatureOptions options;
    options.normalize_string_distances = normalize;
    FeaturePipeline pipeline(&model, options);
    const size_t first = pipeline.pair_dimension() - 8;
    std::vector<float> out(pipeline.pair_dimension());
    for (int k = 0; k < 400; ++k) {
      const std::string n1 = random_name();
      const std::string n2 = random_name();
      const PropertyFeatures a = pipeline.ComputeProperty(n1, {});
      const PropertyFeatures b = pipeline.ComputeProperty(n2, {});
      pipeline.ComputePair(a, b, out);

      auto scaled = [&](size_t distance) {
        return normalize ? text::NormalizedByMaxLength(distance, n1, n2)
                         : static_cast<double>(distance);
      };
      const double bytes =
          std::max<double>(1.0, static_cast<double>(n1.size() + n2.size()));
      const float expected[8] = {
          static_cast<float>(scaled(text::OptimalStringAlignment(n1, n2))),
          static_cast<float>(scaled(text::Levenshtein(n1, n2))),
          static_cast<float>(scaled(text::DamerauLevenshtein(n1, n2))),
          static_cast<float>(scaled(text::LcsDistance(n1, n2))),
          static_cast<float>(normalize ? text::ThreeGramDistance(n1, n2) / bytes
                                       : text::ThreeGramDistance(n1, n2)),
          static_cast<float>(text::ThreeGramCosineDistance(n1, n2)),
          static_cast<float>(text::ThreeGramJaccardDistance(n1, n2)),
          static_cast<float>(text::JaroWinklerDistance(n1, n2))};
      for (size_t slot = 0; slot < 8; ++slot) {
        ASSERT_EQ(std::bit_cast<uint32_t>(out[first + slot]),
                  std::bit_cast<uint32_t>(expected[slot]))
            << "slot " << slot << " |n1|=" << n1.size()
            << " |n2|=" << n2.size() << " normalize=" << normalize;
      }
    }
  }
}

}  // namespace
}  // namespace leapme::features
