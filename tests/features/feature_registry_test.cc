// Tests for the feature-stage registry: stage composition, schema
// fingerprints, stage-mask column selection, per-stage metrics, and the
// golden byte-parity guarantee of the registry-based pipeline against the
// pre-registry monolithic implementation.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/domain.h"
#include "data/generator.h"
#include "embedding/synthetic_model.h"
#include "features/feature_pipeline.h"
#include "features/feature_registry.h"
#include "features/feature_schema.h"

namespace leapme::features {
namespace {

TEST(FeatureRegistryTest, BuiltInStagesInCompositionOrder) {
  const FeatureRegistry& registry = FeatureRegistry::BuiltIn();
  ASSERT_EQ(registry.size(), 6u);
  const std::vector<std::string> expected = {
      "char_class_meta", "token_class_meta", "numeric_value",
      "value_embedding", "name_embedding",   "string_distances"};
  EXPECT_EQ(BuiltInStageNames(), expected);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry.stages()[i]->name(), expected[i]);
    EXPECT_EQ(registry.stages()[i]->version(), 1);
  }
}

TEST(FeatureRegistryTest, FindLooksUpByName) {
  const FeatureRegistry& registry = FeatureRegistry::BuiltIn();
  ASSERT_NE(registry.Find("value_embedding"), nullptr);
  EXPECT_EQ(registry.Find("value_embedding")->name(), "value_embedding");
  EXPECT_EQ(registry.Find("no_such_stage"), nullptr);
  EXPECT_NE(registry.StageNames().find("string_distances"),
            std::string::npos);
}

TEST(FeatureRegistryTest, StageWidthsReproduceTableOne) {
  const size_t d = 300;  // the paper's GloVe dimension
  const FeatureRegistry& registry = FeatureRegistry::BuiltIn();
  size_t property = 0;
  size_t pair = 0;
  for (const FeatureStage* stage : registry.stages()) {
    property += stage->property_width(d);
    pair += stage->pair_width(d);
  }
  EXPECT_EQ(property, FeatureSchema::PropertyDimension(d));  // 629
  EXPECT_EQ(pair, FeatureSchema::PairDimension(d));          // 637
}

TEST(FeatureRegistryTest, SchemaSpansPartitionBothVectors) {
  const size_t d = 16;
  FeatureSchema schema(d);
  ASSERT_EQ(schema.stages().size(), 6u);
  size_t property_offset = 0;
  size_t pair_offset = 0;
  for (const StageSpan& span : schema.stages()) {
    EXPECT_EQ(span.property_begin, property_offset);
    EXPECT_EQ(span.pair_begin, pair_offset);
    property_offset = span.property_end;
    pair_offset = span.pair_end;
  }
  EXPECT_EQ(property_offset, schema.property_dimension());
  EXPECT_EQ(pair_offset, schema.size());

  const StageSpan* distances = schema.FindStage("string_distances");
  ASSERT_NE(distances, nullptr);
  EXPECT_EQ(distances->property_width(), 0u);  // pair-only stage
  EXPECT_EQ(distances->pair_width(), FeatureSchema::kStringDistanceFeatures);
  EXPECT_EQ(schema.FindStage("bogus"), nullptr);
}

TEST(FeatureRegistryTest, CanonicalAndFingerprintFormat) {
  FeatureSchema schema(16);
  EXPECT_EQ(schema.canonical(),
            "dim=16;abs_diff=1;norm_dist=1;max_inst=0;"
            "stages=char_class_meta@1,token_class_meta@1,numeric_value@1,"
            "value_embedding@1,name_embedding@1,string_distances@1");
  ASSERT_EQ(schema.fingerprint().size(), 5u + 16u);
  EXPECT_EQ(schema.fingerprint().substr(0, 5), "lmf1-");
  EXPECT_EQ(schema.fingerprint().find_first_not_of("0123456789abcdef", 5),
            std::string::npos);
}

TEST(FeatureRegistryTest, FingerprintSensitivity) {
  const FeatureRegistry* registry = &FeatureRegistry::BuiltIn();
  PairFeatureOptions defaults;
  FeatureSchema base(registry, 16, defaults);

  // Same inputs -> same fingerprint.
  EXPECT_EQ(FeatureSchema(registry, 16, defaults).fingerprint(),
            base.fingerprint());

  // Every ingredient of the canonical string changes the fingerprint.
  EXPECT_NE(FeatureSchema(registry, 32, defaults).fingerprint(),
            base.fingerprint());
  PairFeatureOptions signed_diff;
  signed_diff.absolute_difference = false;
  EXPECT_NE(FeatureSchema(registry, 16, signed_diff).fingerprint(),
            base.fingerprint());
  PairFeatureOptions raw_distances;
  raw_distances.normalize_string_distances = false;
  EXPECT_NE(FeatureSchema(registry, 16, raw_distances).fingerprint(),
            base.fingerprint());
  PairFeatureOptions capped;
  capped.max_instances_per_property = 3;
  EXPECT_NE(FeatureSchema(registry, 16, capped).fingerprint(),
            base.fingerprint());
}

TEST(FeatureRegistryTest, StageColumnsSelectsSpansSortedAndDeduped) {
  FeatureSchema schema(16);
  auto columns =
      schema.StageColumns({"string_distances", "char_class_meta",
                           "char_class_meta"});
  ASSERT_TRUE(columns.ok()) << columns.status();
  // 18 char-class columns [0, 18) then the 8 distances at the tail.
  ASSERT_EQ(columns->size(), 18u + 8u);
  for (size_t i = 0; i < 18; ++i) {
    EXPECT_EQ((*columns)[i], i);
  }
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*columns)[18 + i], schema.size() - 8 + i);
  }

  auto unknown = schema.StageColumns({"tf_idf"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("char_class_meta"),
            std::string::npos)
      << "error should list the registered stages: " << unknown.status();
}

// ---------------------------------------------------------------------------
// Golden byte-parity: the feature pipeline must produce the same design
// matrix bit for bit on every run and on every kernel dispatch path
// (LEAPME_KERNEL=scalar and avx2 alike). The hashes below were captured
// against the kernel-layer pipeline (canonical 8-lane reduction order,
// unfused multiply-add; DESIGN.md §12) over this exact fixture; FNV-1a
// over the raw float bytes in row order. They were recaptured once when
// the kernel layer landed: moving embedding normalization from a strict
// sequential sum-of-squares to the canonical lane order perturbs the
// synthetic embedding bytes (a one-time, documented renumbering), after
// which the bytes are again locked across dispatch paths and runs.

uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct GoldenCase {
  PairFeatureOptions options;
  uint64_t property_hash;
  uint64_t design_hash;
};

class GoldenParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 55;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 56,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
  }

  void CheckGolden(const GoldenCase& golden) {
    FeaturePipeline pipeline(model_, golden.options);
    std::vector<PropertyFeatures> properties;
    std::vector<std::string> values;
    uint64_t property_hash = 0xcbf29ce484222325ULL;
    for (data::PropertyId id = 0; id < dataset_->property_count(); ++id) {
      values.clear();
      for (const auto& instance : dataset_->instances(id)) {
        values.push_back(instance.value);
      }
      properties.push_back(
          pipeline.ComputeProperty(dataset_->property(id).name, values));
      property_hash = Fnv1a(properties.back().vector.data(),
                            properties.back().vector.size() * sizeof(float),
                            property_hash);
    }
    EXPECT_EQ(property_hash, golden.property_hash)
        << "property feature vectors drifted from the pre-registry "
           "pipeline";

    std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
    ASSERT_EQ(pairs.size(), 1484u);
    std::vector<const PropertyFeatures*> lhs;
    std::vector<const PropertyFeatures*> rhs;
    for (const auto& pair : pairs) {
      lhs.push_back(&properties[pair.a]);
      rhs.push_back(&properties[pair.b]);
    }
    nn::Matrix design = pipeline.BuildDesignMatrix(lhs, rhs, {});
    EXPECT_EQ(Fnv1a(design.data(),
                    design.rows() * design.cols() * sizeof(float)),
              golden.design_hash)
        << "design matrix drifted from the pre-registry pipeline";
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* model_;
};

data::Dataset* GoldenParityTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* GoldenParityTest::model_ = nullptr;

TEST_F(GoldenParityTest, DefaultOptions) {
  CheckGolden({PairFeatureOptions{}, 0xdce6afc5a8785652ULL,
               0x84bfcef4de615d24ULL});
}

TEST_F(GoldenParityTest, SignedDifference) {
  PairFeatureOptions options;
  options.absolute_difference = false;
  CheckGolden({options, 0xdce6afc5a8785652ULL, 0x896e2c6c70e00424ULL});
}

TEST_F(GoldenParityTest, RawStringDistances) {
  PairFeatureOptions options;
  options.normalize_string_distances = false;
  CheckGolden({options, 0xdce6afc5a8785652ULL, 0x5b4a6391a5f3145fULL});
}

TEST_F(GoldenParityTest, CappedInstances) {
  PairFeatureOptions options;
  options.max_instances_per_property = 3;
  CheckGolden({options, 0xb3c6e9b92fd42a4bULL, 0x95e87cdbf0c44011ULL});
}

TEST_F(GoldenParityTest, StageTimingsCountEveryCall) {
  FeaturePipeline pipeline(model_, {});
  std::vector<std::string> values = {"42 inch", "1080p"};
  const size_t kProperties = 3;
  std::vector<PropertyFeatures> properties;
  for (size_t i = 0; i < kProperties; ++i) {
    properties.push_back(pipeline.ComputeProperty("screen size", values));
  }
  std::vector<const PropertyFeatures*> lhs{&properties[0], &properties[1]};
  std::vector<const PropertyFeatures*> rhs{&properties[1], &properties[2]};
  pipeline.BuildDesignMatrix(lhs, rhs, {});

  const std::vector<StageTiming> timings = pipeline.StageTimings();
  ASSERT_EQ(timings.size(), 6u);
  for (const StageTiming& timing : timings) {
    EXPECT_EQ(timing.version, 1);
    EXPECT_EQ(timing.pair_calls, 2u) << timing.name;
    if (timing.name == "string_distances") {
      // Pair-only: no property block to compute.
      EXPECT_EQ(timing.property_calls, 0u);
    } else {
      EXPECT_EQ(timing.property_calls, kProperties) << timing.name;
    }
  }
}

TEST_F(GoldenParityTest, UnselectedStagesAreSkipped) {
  FeaturePipeline full_pipeline(model_, {});
  FeaturePipeline pipeline(model_, {});
  std::vector<PropertyFeatures> properties;
  std::vector<std::string> values;
  for (data::PropertyId id = 0; id < dataset_->property_count(); ++id) {
    values.clear();
    for (const auto& instance : dataset_->instances(id)) {
      values.push_back(instance.value);
    }
    properties.push_back(
        pipeline.ComputeProperty(dataset_->property(id).name, values));
  }
  std::vector<const PropertyFeatures*> lhs;
  std::vector<const PropertyFeatures*> rhs;
  for (const auto& pair : dataset_->AllCrossSourcePairs()) {
    lhs.push_back(&properties[pair.a]);
    rhs.push_back(&properties[pair.b]);
  }
  const std::vector<size_t> columns = pipeline.schema().SelectedColumns(
      {OriginSelection::kInstancesOnly, KindSelection::kBoth});
  ASSERT_FALSE(columns.empty());

  const nn::Matrix selected = pipeline.BuildDesignMatrix(lhs, rhs, columns);
  const nn::Matrix full = full_pipeline.BuildDesignMatrix(lhs, rhs, {});
  ASSERT_EQ(selected.rows(), full.rows());
  ASSERT_EQ(selected.cols(), columns.size());
  for (size_t r = 0; r < full.rows(); ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      ASSERT_EQ(std::bit_cast<uint32_t>(selected.row(r)[c]),
                std::bit_cast<uint32_t>(full.row(r)[columns[c]]))
          << "row " << r << " column " << columns[c];
    }
  }
  for (const StageTiming& timing : pipeline.StageTimings()) {
    if (timing.name == "string_distances" ||
        timing.name == "name_embedding") {
      EXPECT_EQ(timing.pair_calls, 0u) << timing.name;
    } else {
      EXPECT_EQ(timing.pair_calls, lhs.size()) << timing.name;
    }
  }
}

}  // namespace
}  // namespace leapme::features
