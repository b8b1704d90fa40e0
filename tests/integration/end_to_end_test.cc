// Integration tests spanning the whole system: dataset generation ->
// embedding space -> feature pipeline -> LEAPME training -> matching ->
// clustering, plus the baseline comparison claims of the paper at a
// miniature scale.

#include <gtest/gtest.h>

#include "baselines/aml.h"
#include "baselines/fca_map.h"
#include "baselines/lsh.h"
#include "baselines/nezhadi.h"
#include "baselines/semprop.h"
#include "core/leapme.h"
#include "data/tsv_io.h"
#include "eval/experiment.h"
#include "eval/leapme_adapter.h"
#include "graph/similarity_graph.h"
#include "tests/temp_dir.h"

namespace leapme {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto specs = eval::DefaultDatasetSpecs(eval::EvalScale::kTest);
    built_ = new eval::EvalDataset(
        std::move(eval::BuildEvalDataset(specs[0])).value());
  }

  static eval::EvalDataset* built_;
};

eval::EvalDataset* EndToEndTest::built_ = nullptr;

TEST_F(EndToEndTest, LeapmeBeatsUnsupervisedBaselinesOnF1) {
  eval::EvaluationOptions options;
  options.repetitions = 2;
  options.train_fraction = 0.8;

  auto evaluate = [&](eval::MatcherFactory factory) {
    auto result = eval::EvaluateMatcher(factory, *built_, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->mean;
  };

  ml::MatchQuality leapme = evaluate(
      [](const embedding::EmbeddingModel& model)
          -> std::unique_ptr<baselines::PairMatcher> {
        return std::make_unique<eval::LeapmeAdapter>(
            &model, core::LeapmeOptions{}, "LEAPME");
      });
  ml::MatchQuality fca = evaluate(
      [](const embedding::EmbeddingModel&)
          -> std::unique_ptr<baselines::PairMatcher> {
        return std::make_unique<baselines::FcaMapMatcher>();
      });
  ml::MatchQuality lsh = evaluate(
      [](const embedding::EmbeddingModel&)
          -> std::unique_ptr<baselines::PairMatcher> {
        return std::make_unique<baselines::LshMatcher>();
      });

  // The paper's headline claim at miniature scale: supervised LEAPME with
  // all features beats the unsupervised baselines on F1.
  EXPECT_GT(leapme.f1, fca.f1);
  EXPECT_GT(leapme.f1, lsh.f1);
}

TEST_F(EndToEndTest, UnsupervisedNameMatchersHavePrecisionOverRecall) {
  eval::EvaluationOptions options;
  options.repetitions = 2;
  options.train_fraction = 0.8;
  auto result = eval::EvaluateMatcher(
      [](const embedding::EmbeddingModel&)
          -> std::unique_ptr<baselines::PairMatcher> {
        return std::make_unique<baselines::FcaMapMatcher>();
      },
      *built_, options);
  ASSERT_TRUE(result.ok());
  // FCA-Map: very high precision, limited recall (paper observation 1).
  EXPECT_GT(result->mean.precision, 0.8);
  EXPECT_LT(result->mean.recall, 0.8);
  EXPECT_GT(result->mean.precision, result->mean.recall);
}

TEST_F(EndToEndTest, SimilarityGraphClusteringRecoversReferences) {
  Rng rng(5);
  data::SourceSplit split =
      data::SplitSources(built_->dataset, 0.8, rng);
  auto train = data::BuildTrainingPairs(built_->dataset,
                                        split.train_sources, 2.0, rng);
  ASSERT_TRUE(train.ok());

  core::LeapmeMatcher matcher(built_->model.get());
  ASSERT_TRUE(matcher.Fit(built_->dataset, *train).ok());
  auto graph =
      matcher.BuildSimilarityGraph(built_->dataset.AllCrossSourcePairs());
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->edge_count(), 0u);

  graph::Clusters clusters =
      graph::StarClusters(*graph, matcher.options().decision_threshold);
  graph::ClusterQuality quality =
      graph::EvaluateClusters(clusters, built_->dataset);
  EXPECT_GT(quality.f1, 0.3);
  EXPECT_GT(quality.non_singleton_clusters, 3u);
}

TEST_F(EndToEndTest, TsvRoundTripPreservesEvaluationResult) {
  std::string path = test::ProcessTempPath("e2e_dataset.tsv");
  ASSERT_TRUE(data::WriteDatasetTsv(built_->dataset, path).ok());
  auto loaded = data::ReadDatasetTsv(path, built_->dataset.name());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->property_count(), built_->dataset.property_count());
  EXPECT_EQ(loaded->CountMatchingPairs(),
            built_->dataset.CountMatchingPairs());

  // An unsupervised matcher produces identical decisions on the reloaded
  // dataset (property ids are assigned in file order, which round-trips).
  baselines::AmlMatcher original;
  baselines::AmlMatcher reloaded;
  ASSERT_TRUE(original.Fit(built_->dataset, {}).ok());
  ASSERT_TRUE(reloaded.Fit(*loaded, {}).ok());
  auto pairs = built_->dataset.AllCrossSourcePairs();
  std::vector<data::PropertyPair> sample(
      pairs.begin(), pairs.begin() + std::min<size_t>(200, pairs.size()));
  EXPECT_EQ(original.ClassifyPairs(sample).value(),
            reloaded.ClassifyPairs(sample).value());
}

TEST_F(EndToEndTest, TransferAcrossDomainsRunsEndToEnd) {
  // Train on cameras, apply the trained feature+classifier stack to
  // headphones via a fresh Fit (the transfer bench measures quality; here
  // we assert the mechanics work on a second domain).
  auto specs = eval::DefaultDatasetSpecs(eval::EvalScale::kTest);
  auto headphones = eval::BuildEvalDataset(specs[1]);
  ASSERT_TRUE(headphones.ok());
  Rng rng(6);
  data::SourceSplit split =
      data::SplitSources(headphones->dataset, 0.6, rng);
  auto train = data::BuildTrainingPairs(headphones->dataset,
                                        split.train_sources, 2.0, rng);
  ASSERT_TRUE(train.ok());
  core::LeapmeMatcher matcher(headphones->model.get());
  ASSERT_TRUE(matcher.Fit(headphones->dataset, *train).ok());
  auto test = data::BuildTestPairs(headphones->dataset,
                                   split.train_sources);
  std::vector<data::PropertyPair> pairs;
  for (const auto& labeled : test) pairs.push_back(labeled.pair);
  EXPECT_TRUE(matcher.ScorePairs(pairs).ok());
}

}  // namespace
}  // namespace leapme
