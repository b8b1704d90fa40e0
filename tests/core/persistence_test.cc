// Tests for LeapmeMatcher model persistence (SaveModel / LoadModel).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>

#include <gtest/gtest.h>

#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "embedding/synthetic_model.h"
#include "tests/temp_dir.h"

namespace leapme::core {
namespace {

class PersistenceTest : public ::testing::Test {
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
    Rng rng(57);
    std::vector<data::SourceId> sources{0, 1, 2};
    train_ = new std::vector<data::LabeledPair>(
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value());
  }

  static std::string Path(const char* name) {
    return test::ProcessTempPath(name);
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* model_;
  static std::vector<data::LabeledPair>* train_;
};

data::Dataset* PersistenceTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* PersistenceTest::model_ = nullptr;
std::vector<data::LabeledPair>* PersistenceTest::train_ = nullptr;

TEST_F(PersistenceTest, SaveBeforeFitFails) {
  LeapmeMatcher matcher(model_);
  EXPECT_TRUE(matcher.SaveModel(Path("nope.model")).IsFailedPrecondition());
}

TEST_F(PersistenceTest, RoundTripPreservesScores) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("roundtrip.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 100));
  auto original = matcher.ScorePairs(pairs).value();
  // The loaded matcher has no cached property features; ScorePairsOn
  // recomputes them from the dataset.
  auto restored = loaded->ScorePairsOn(*dataset_, pairs).value();
  ASSERT_EQ(original.size(), restored.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-5) << "pair " << i;
  }
}

TEST_F(PersistenceTest, RoundTripPreservesOptions) {
  LeapmeOptions options;
  options.decision_threshold = 0.7;
  options.feature_config.origin = features::OriginSelection::kNamesOnly;
  LeapmeMatcher matcher(model_, options);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("options.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());
  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->options().decision_threshold, 0.7);
  EXPECT_EQ(loaded->options().feature_config.origin,
            features::OriginSelection::kNamesOnly);
  EXPECT_EQ(loaded->input_dimension(), matcher.input_dimension());
}

TEST_F(PersistenceTest, DimensionMismatchRejected) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("dim.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  auto other_model = embedding::SyntheticEmbeddingModel::Build(
      data::DomainClusters(data::TvDomain()), {.dimension = 32, .seed = 58});
  ASSERT_TRUE(other_model.ok());
  auto loaded = LeapmeMatcher::LoadModel(&other_model.value(), path);
  EXPECT_FALSE(loaded.ok());
  // Typed so serving entry points can distinguish "wrong deployment"
  // from a corrupt file.
  EXPECT_TRUE(loaded.status().IsFailedPrecondition());
}

// Rewrites the main model file at `path` through `edit` (a line-list
// transform), leaving the .mlp side file untouched.
void RewriteModelFile(const std::string& path,
                      const std::function<void(std::vector<std::string>*)>&
                          edit) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  edit(&lines);
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

TEST_F(PersistenceTest, V1ModelStillLoadsAndScoresIdentically) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("v1compat.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  // Downgrade the file to the pre-fingerprint v1 format: old header, no
  // fingerprint / max_instances keys.
  RewriteModelFile(path, [](std::vector<std::string>* lines) {
    ASSERT_FALSE(lines->empty());
    (*lines)[0] = "leapme-matcher 1";
    lines->erase(std::remove_if(lines->begin(), lines->end(),
                                [](const std::string& line) {
                                  return line.rfind("fingerprint ", 0) == 0 ||
                                         line.rfind("max_instances ", 0) == 0;
                                }),
                 lines->end());
  });

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 50));
  auto original = matcher.ScorePairs(pairs).value();
  auto restored = loaded->ScorePairsOn(*dataset_, pairs).value();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], restored[i]) << "pair " << i;
  }
}

TEST_F(PersistenceTest, FingerprintMismatchRejected) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("fingerprint_mismatch.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  // A model trained against a different feature schema (e.g. a stage
  // version bumped since training) carries a different fingerprint.
  RewriteModelFile(path, [](std::vector<std::string>* lines) {
    for (std::string& line : *lines) {
      if (line.rfind("fingerprint ", 0) == 0) {
        line = "fingerprint lmf1-00000000deadbeef";
      }
    }
  });

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsFailedPrecondition());
  EXPECT_NE(loaded.status().message().find("lmf1-00000000deadbeef"),
            std::string::npos)
      << loaded.status();
}

TEST_F(PersistenceTest, V2WithoutFingerprintIsCorrupt) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("v2_no_fingerprint.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  RewriteModelFile(path, [](std::vector<std::string>* lines) {
    lines->erase(std::remove_if(lines->begin(), lines->end(),
                                [](const std::string& line) {
                                  return line.rfind("fingerprint ", 0) == 0;
                                }),
                 lines->end());
  });

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, MissingEndMarkerIsCorrupt) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("no_end.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  // A v2 file must end with the "end leapme" sentinel; without it the
  // file is indistinguishable from a torn write and must not load.
  RewriteModelFile(path, [](std::vector<std::string>* lines) {
    lines->erase(std::remove_if(lines->begin(), lines->end(),
                                [](const std::string& line) {
                                  return line.rfind("end ", 0) == 0;
                                }),
                 lines->end());
  });

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, StageSelectionRoundTrips) {
  LeapmeOptions options;
  options.feature_stages = {"name_embedding", "string_distances"};
  LeapmeMatcher matcher(model_, options);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  // d + 8 string distances.
  EXPECT_EQ(matcher.input_dimension(), 16u + 8u);
  std::string path = Path("stages.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().feature_stages, options.feature_stages);
  EXPECT_EQ(loaded->input_dimension(), matcher.input_dimension());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 50));
  auto original = matcher.ScorePairs(pairs).value();
  auto restored = loaded->ScorePairsOn(*dataset_, pairs).value();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], restored[i]) << "pair " << i;
  }
}

TEST_F(PersistenceTest, MaxInstancesCapRoundTrips) {
  LeapmeOptions options;
  options.pair_features.max_instances_per_property = 3;
  LeapmeMatcher matcher(model_, options);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("max_instances.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().pair_features.max_instances_per_property, 3u);
  // The cap is part of the fingerprint, so the loaded pipeline recomputes
  // features under the same cap and reproduces the scores exactly.
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 50));
  auto original = matcher.ScorePairs(pairs).value();
  auto restored = loaded->ScorePairsOn(*dataset_, pairs).value();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], restored[i]) << "pair " << i;
  }
}

TEST_F(PersistenceTest, MissingFileFails) {
  EXPECT_FALSE(LeapmeMatcher::LoadModel(model_, "/nonexistent.model").ok());
}

TEST_F(PersistenceTest, CorruptHeaderFails) {
  std::string path = Path("corrupt.model");
  {
    std::ofstream out(path);
    out << "not-a-matcher 9\n";
  }
  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, RoundTripScoresAreBitIdentical) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("bitexact.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());
  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 100));
  auto original = matcher.ScorePairs(pairs).value();
  auto restored = loaded->ScorePairsOn(*dataset_, pairs).value();
  ASSERT_EQ(original.size(), restored.size());
  // Weights, scaler statistics and threshold are persisted with full
  // round-trip precision, so the restored matcher reproduces every score
  // exactly — the guarantee the online service builds on.
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], restored[i]) << "pair " << i;
  }
  EXPECT_EQ(loaded->decision_threshold(), matcher.decision_threshold());
}

TEST_F(PersistenceTest, TruncatedFilesFailCleanly) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("truncate.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  // Truncate both the matcher file and the network weights at several
  // points; every prefix must come back as a Status, never a crash.
  for (const std::string& victim : {path, path + ".mlp"}) {
    std::string contents;
    {
      std::ifstream in(victim, std::ios::binary);
      contents.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(contents.empty());
    // Cut points land inside the count-driven weight / column / scaler
    // regions, where a shortfall must surface as !in.
    for (size_t keep : {contents.size() / 3, contents.size() / 2}) {
      std::string clipped_path = Path("clipped.model");
      // Keep the side file intact so the failure is the clipped one.
      {
        std::ofstream main_out(clipped_path, std::ios::binary);
        std::ofstream mlp_out(clipped_path + ".mlp", std::ios::binary);
        std::ifstream main_in(path, std::ios::binary);
        std::ifstream mlp_in(path + ".mlp", std::ios::binary);
        main_out << main_in.rdbuf();
        mlp_out << mlp_in.rdbuf();
      }
      {
        std::ofstream out(victim == path ? clipped_path
                                         : clipped_path + ".mlp",
                          std::ios::binary | std::ios::trunc);
        out.write(contents.data(), static_cast<std::streamsize>(keep));
      }
      auto loaded = LeapmeMatcher::LoadModel(model_, clipped_path);
      EXPECT_FALSE(loaded.ok())
          << victim << " truncated to " << keep << " bytes";
    }
  }
}

TEST_F(PersistenceTest, HostileColumnCountRejectedWithoutAllocating) {
  std::string path = Path("hostile_columns.model");
  {
    std::ofstream out(path);
    out << "leapme-matcher 1\n";
    out << "embedding_dim 16\n";
    out << "columns 92233720368547758\n";  // would be an 8 PB resize
  }
  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, HostileScalerCountRejectedWithoutAllocating) {
  std::string path = Path("hostile_scaler.model");
  {
    std::ofstream out(path);
    out << "leapme-matcher 1\n";
    out << "embedding_dim 16\n";
    out << "scaler 92233720368547758\n";
  }
  auto loaded = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, HostileMlpShapesRejected) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("hostile_mlp.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());

  {
    std::ofstream out(path + ".mlp", std::ios::trunc);
    out << "leapme-mlp 1\n99999999\n";  // absurd layer count
  }
  auto huge_layers = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(huge_layers.ok());
  EXPECT_EQ(huge_layers.status().code(), StatusCode::kCorruption);

  {
    std::ofstream out(path + ".mlp", std::ios::trunc);
    out << "leapme-mlp 1\n1\ndense\n1048576 1048576\n";  // 4 TB of weights
  }
  auto huge_dense = LeapmeMatcher::LoadModel(model_, path);
  ASSERT_FALSE(huge_dense.ok());
  EXPECT_EQ(huge_dense.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, MissingWeightsFileFails) {
  LeapmeMatcher matcher(model_);
  ASSERT_TRUE(matcher.Fit(*dataset_, *train_).ok());
  std::string path = Path("no_weights.model");
  ASSERT_TRUE(matcher.SaveModel(path).ok());
  ASSERT_EQ(std::remove((path + ".mlp").c_str()), 0);
  EXPECT_FALSE(LeapmeMatcher::LoadModel(model_, path).ok());
}

}  // namespace
}  // namespace leapme::core
