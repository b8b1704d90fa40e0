// The determinism contract of the execution engine, end to end: training
// and scoring a LEAPME matcher must be bit-identical at any thread count
// (DESIGN.md "Execution model"). Runs the full Fit + ScorePairs +
// ScorePairsOn path at 1, 2 and 4 threads and compares exact doubles.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "embedding/synthetic_model.h"
#include "features/feature_pipeline.h"
#include "nn/matrix.h"

namespace leapme::core {
namespace {

/// Small headphone catalog + embedding space shared across the runs.
class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 5;
    generator.min_entities_per_source = 10;
    generator.max_entities_per_source = 10;
    generator.seed = 91;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::HeadphoneDomain(), generator).value());

    embedding::SyntheticModelOptions embedding;
    embedding.dimension = 16;
    embedding.seed = 92;
    embedding.oov_policy = embedding::OovPolicy::kHashedVector;
    model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::HeadphoneDomain()), embedding)
            .value());

    Rng rng(93);
    split_ = new data::SourceSplit(data::SplitSources(*dataset_, 0.6, rng));
    train_pairs_ = new std::vector<data::LabeledPair>(
        data::BuildTrainingPairs(*dataset_, split_->train_sources, 2.0, rng)
            .value());
    test_pairs_ = new std::vector<data::LabeledPair>(
        data::BuildTestPairs(*dataset_, split_->train_sources));
  }

  void TearDown() override { SetGlobalThreadCount(0); }

  /// One full run at the given pool width: fresh matcher, Fit, ScorePairs
  /// on the test pairs, ScorePairsOn against the same dataset (the
  /// transfer path), returning everything that could diverge.
  struct RunResult {
    std::vector<double> losses;
    std::vector<double> scores;
    std::vector<double> transfer_scores;
  };

  static RunResult RunAt(size_t threads, size_t batch_size) {
    SetGlobalThreadCount(threads);
    LeapmeOptions options;
    options.score_batch_size = batch_size;
    LeapmeMatcher matcher(model_, options);
    EXPECT_TRUE(matcher.Fit(*dataset_, *train_pairs_).ok());

    std::vector<data::PropertyPair> pairs;
    for (const data::LabeledPair& labeled : *test_pairs_) {
      pairs.push_back(labeled.pair);
    }
    RunResult result;
    result.losses = matcher.training_losses();
    result.scores = matcher.ScorePairs(pairs).value();
    result.transfer_scores = matcher.ScorePairsOn(*dataset_, pairs).value();
    return result;
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* model_;
  static data::SourceSplit* split_;
  static std::vector<data::LabeledPair>* train_pairs_;
  static std::vector<data::LabeledPair>* test_pairs_;
};

data::Dataset* DeterminismTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* DeterminismTest::model_ = nullptr;
data::SourceSplit* DeterminismTest::split_ = nullptr;
std::vector<data::LabeledPair>* DeterminismTest::train_pairs_ = nullptr;
std::vector<data::LabeledPair>* DeterminismTest::test_pairs_ = nullptr;

/// Exact (bitwise) comparison: EXPECT_EQ on doubles is exact equality,
/// which is precisely the contract under test.
void ExpectIdentical(const std::vector<double>& a,
                     const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverges at index " << i;
  }
}

TEST_F(DeterminismTest, FitAndScoreBitIdenticalAcrossThreadCounts) {
  const RunResult at1 = RunAt(1, 4096);
  const RunResult at2 = RunAt(2, 4096);
  const RunResult at4 = RunAt(4, 4096);
  ASSERT_FALSE(at1.scores.empty());

  ExpectIdentical(at1.losses, at2.losses, "training losses (2 threads)");
  ExpectIdentical(at1.losses, at4.losses, "training losses (4 threads)");
  ExpectIdentical(at1.scores, at2.scores, "scores (2 threads)");
  ExpectIdentical(at1.scores, at4.scores, "scores (4 threads)");
  ExpectIdentical(at1.transfer_scores, at2.transfer_scores,
                  "transfer scores (2 threads)");
  ExpectIdentical(at1.transfer_scores, at4.transfer_scores,
                  "transfer scores (4 threads)");
}

TEST_F(DeterminismTest, ScoresIndependentOfBatchSize) {
  // The batch size is a scheduling knob: scoring in batches of 7 must
  // match scoring in one big batch. (Per-batch standardization and
  // inference touch each row independently.)
  const RunResult big = RunAt(4, 4096);
  const RunResult small = RunAt(4, 7);
  ExpectIdentical(big.scores, small.scores, "scores (batch 4096 vs 7)");
}

/// FNV-1a (64-bit) over the bit patterns of a run's training losses,
/// decision threshold and ScorePairs scores.
class BitHasher {
 public:
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<double>& values) {
    for (double value : values) Add(value);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST_F(DeterminismTest, TrainedBitsMatchGolden) {
  // Pins what training produces, not just that it is thread-invariant: a
  // refactor of the network, optimizer or trainer must leave every loss,
  // threshold and score bit-identical. Covers the default fit and the
  // calibrated fit (holdout inference + best-F1 threshold).
  constexpr uint64_t kGolden = 0xcbe0b2996f1b247dULL;
  std::vector<data::PropertyPair> pairs;
  for (const data::LabeledPair& labeled : *test_pairs_) {
    pairs.push_back(labeled.pair);
  }
  for (size_t threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    BitHasher hasher;
    for (double calibration : {0.0, 0.25}) {
      LeapmeOptions options;
      options.calibration_fraction = calibration;
      LeapmeMatcher matcher(model_, options);
      ASSERT_TRUE(matcher.Fit(*dataset_, *train_pairs_).ok());
      hasher.Add(matcher.training_losses());
      hasher.Add(matcher.decision_threshold());
      hasher.Add(matcher.ScorePairs(pairs).value());
    }
    EXPECT_EQ(hasher.hash(), kGolden)
        << "threads " << threads << ": 0x" << std::hex << hasher.hash();
  }
}

TEST_F(DeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
  // Direct check of the GEMM parallel path at a size above its threshold.
  const size_t n = 160;  // 160^3 = 4.1M MACs > the 2M parallel threshold
  nn::Matrix a(n, n);
  nn::Matrix b(n, n);
  Rng rng(7);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.NextDouble(-1, 1));
    b.data()[i] = static_cast<float>(rng.NextDouble(-1, 1));
  }
  SetGlobalThreadCount(1);
  nn::Matrix sequential;
  nn::Gemm(a, b, &sequential);
  SetGlobalThreadCount(4);
  nn::Matrix parallel;
  nn::Gemm(a, b, &parallel);
  ASSERT_EQ(sequential.rows(), parallel.rows());
  ASSERT_EQ(sequential.cols(), parallel.cols());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential.data()[i], parallel.data()[i]) << "element " << i;
  }
}

TEST_F(DeterminismTest, DesignMatrixBitIdenticalAcrossThreadCounts) {
  features::FeaturePipeline pipeline(model_);
  std::vector<features::PropertyFeatures> properties;
  std::vector<std::string> values = {"40 mm driver", "32 ohm", "wireless"};
  for (data::PropertyId id = 0; id < dataset_->property_count(); ++id) {
    properties.push_back(
        pipeline.ComputeProperty(dataset_->property(id).name, values));
  }
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  for (size_t i = 0; i < properties.size(); ++i) {
    for (size_t j = i + 1; j < properties.size(); ++j) {
      lhs.push_back(&properties[i]);
      rhs.push_back(&properties[j]);
    }
  }
  nn::Matrix at1 = pipeline.BuildDesignMatrix(lhs, rhs, {}, /*max_threads=*/1);
  nn::Matrix at4 = pipeline.BuildDesignMatrix(lhs, rhs, {}, /*max_threads=*/4);
  ASSERT_EQ(at1.rows(), at4.rows());
  ASSERT_EQ(at1.cols(), at4.cols());
  for (size_t i = 0; i < at1.size(); ++i) {
    ASSERT_EQ(at1.data()[i], at4.data()[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace leapme::core
