// Tests for the versioned model registry behind hot reload: generation
// hand-out, staged admission (validation + shadow canary), bit-identical
// serving across reloads of the same file, v1-format models through the
// serve path, and torn-free swaps under concurrent scoring.

#include "serve/model_registry.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "serve/matcher_service.h"

namespace leapme::serve {
namespace {

PropertySpec SpecOf(const data::Dataset& dataset, data::PropertyId id) {
  PropertySpec spec;
  spec.name = dataset.property(id).name;
  for (const data::InstanceValue& instance : dataset.instances(id)) {
    spec.values.push_back(instance.value);
  }
  return spec;
}

/// Rewrites the main model file at `path` through `edit` (a line-list
/// transform), leaving the .mlp side file untouched.
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

/// Two saved models (trained on different source subsets, so they score
/// differently) plus the loader `leapme serve` would use for them.
class ModelRegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 171;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 172,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());

    const std::string stem =
        ::testing::TempDir() + "/registry." + std::to_string(::getpid());
    path_a_ = new std::string(stem + ".a.model");
    path_b_ = new std::string(stem + ".b.model");
    TrainAndSave({0, 1, 2}, 173, *path_a_);
    TrainAndSave({1, 2, 3}, 174, *path_b_);
  }

  static void TrainAndSave(const std::vector<data::SourceId>& sources,
                           uint64_t seed, const std::string& path) {
    Rng rng(seed);
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    core::LeapmeMatcher trained(base_model_);
    ASSERT_TRUE(trained.Fit(*dataset_, training).ok());
    ASSERT_TRUE(trained.SaveModel(path).ok());
  }

  /// The same per-generation resource stack the serve command builds:
  /// fresh embeddings + cache + LoadModel, owned together.
  static ModelRegistry::Loader Loader() {
    return [](const std::string& path)
               -> StatusOr<ModelGeneration::Resources> {
      ModelGeneration::Resources resources;
      resources.base_model =
          std::make_unique<embedding::SyntheticEmbeddingModel>(
              embedding::SyntheticEmbeddingModel::Build(
                  data::DomainClusters(data::TvDomain()),
                  {.dimension = 16,
                   .seed = 172,
                   .oov_policy = embedding::OovPolicy::kHashedVector})
                  .value());
      resources.embedding_cache =
          std::make_unique<embedding::CachingEmbeddingModel>(
              resources.base_model.get(), 4096);
      LEAPME_ASSIGN_OR_RETURN(
          core::LeapmeMatcher matcher,
          core::LeapmeMatcher::LoadModel(resources.embedding_cache.get(),
                                         path));
      resources.matcher =
          std::make_unique<core::LeapmeMatcher>(std::move(matcher));
      return resources;
    };
  }

  /// Offline reference scores for `pairs` through the model at `path`.
  static std::vector<double> OfflineScores(
      const std::string& path, const std::vector<data::PropertyPair>& pairs) {
    auto resources = Loader()(path);
    EXPECT_TRUE(resources.ok()) << resources.status();
    return resources->matcher->ScorePairsOn(*dataset_, pairs).value();
  }

  static std::vector<data::PropertyPair> SamplePairs(size_t n) {
    std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
    pairs.resize(std::min(pairs.size(), n));
    return pairs;
  }

  static std::vector<PropertyPairSpec> SpecsOf(
      const std::vector<data::PropertyPair>& pairs) {
    std::vector<PropertyPairSpec> specs;
    for (const data::PropertyPair& pair : pairs) {
      specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
    }
    return specs;
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static std::string* path_a_;
  static std::string* path_b_;
};

data::Dataset* ModelRegistryTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* ModelRegistryTest::base_model_ = nullptr;
std::string* ModelRegistryTest::path_a_ = nullptr;
std::string* ModelRegistryTest::path_b_ = nullptr;

TEST_F(ModelRegistryTest, InitialGenerationServesBitIdenticalScores) {
  ModelRegistry registry(Loader());
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();

  const auto pairs = SamplePairs(20);
  const std::vector<double> offline = OfflineScores(*path_a_, pairs);
  auto scores = (*service)->Score(SpecsOf(pairs));
  ASSERT_TRUE(scores.ok()) << scores.status();
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]) << "pair " << i;
  }
  const RegistryStats stats = registry.Snapshot();
  EXPECT_EQ(stats.info.version, 1u);
  EXPECT_EQ(stats.info.format_version, 2);
  EXPECT_FALSE(stats.info.fingerprint.empty());
  EXPECT_GT(stats.info.file_mtime, 0);
}

TEST_F(ModelRegistryTest, ReloadSameFileIsBitIdenticalWithZeroDivergence) {
  ModelRegistry registry(Loader());
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();

  const auto pairs = SamplePairs(20);
  const std::vector<double> offline = OfflineScores(*path_a_, pairs);
  // Serve some traffic first so the canary ring has live pairs to
  // shadow-score.
  ASSERT_TRUE((*service)->Score(SpecsOf(pairs)).ok());

  auto outcome = registry.Reload();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->info.version, 2u);
  EXPECT_GT(outcome->canary_pairs, 0u);
  EXPECT_EQ(outcome->canary_divergence, 0.0);

  auto scores = (*service)->Score(SpecsOf(pairs));
  ASSERT_TRUE(scores.ok()) << scores.status();
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]) << "pair " << i;
  }
  EXPECT_EQ(registry.Snapshot().reloads_ok, 1u);
}

TEST_F(ModelRegistryTest, ReloadToDifferentModelSwapsScores) {
  // canary_threshold 1.0 admits any divergence (scores live in [0, 1]).
  RegistryOptions options;
  options.canary_threshold = 1.0;
  ModelRegistry registry(Loader(), options);
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();

  const auto pairs = SamplePairs(20);
  ASSERT_TRUE((*service)->Score(SpecsOf(pairs)).ok());

  auto outcome = registry.Reload(*path_b_);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->info.version, 2u);

  const std::vector<double> offline_b = OfflineScores(*path_b_, pairs);
  auto scores = (*service)->Score(SpecsOf(pairs));
  ASSERT_TRUE(scores.ok()) << scores.status();
  for (size_t i = 0; i < offline_b.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline_b[i]) << "pair " << i;
  }
}

TEST_F(ModelRegistryTest, CanaryRejectsDivergentCandidate) {
  const auto pairs = SamplePairs(20);
  // The trip is only meaningful if the two models actually disagree on
  // the captured sample.
  const std::vector<double> offline_a = OfflineScores(*path_a_, pairs);
  const std::vector<double> offline_b = OfflineScores(*path_b_, pairs);
  double max_diff = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(offline_a[i] - offline_b[i]));
  }
  ASSERT_GT(max_diff, 1e-9) << "fixture models must score differently";

  RegistryOptions options;
  options.canary_threshold = max_diff / 2.0;
  ModelRegistry registry(Loader(), options);
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();
  // One pair per request: every scored pair lands in the canary ring, so
  // the max-divergence pair is guaranteed captured.
  for (const auto& spec : SpecsOf(pairs)) {
    ASSERT_TRUE((*service)->Score({spec}).ok());
  }

  auto outcome = registry.Reload(*path_b_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition())
      << outcome.status();

  // Rejection left serving untouched: still generation 1, still model A.
  const RegistryStats stats = registry.Snapshot();
  EXPECT_EQ(stats.info.version, 1u);
  EXPECT_EQ(stats.reloads_rejected, 1u);
  EXPECT_GT(stats.canary_divergence, options.canary_threshold);
  auto scores = (*service)->Score(SpecsOf(pairs));
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < offline_a.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline_a[i]) << "pair " << i;
  }
}

TEST_F(ModelRegistryTest, WrappedRegistryRefusesReload) {
  auto resources = Loader()(*path_a_);
  ASSERT_TRUE(resources.ok());
  auto registry = ModelRegistry::WrapExisting(
                      resources->matcher.get(),
                      resources->embedding_cache.get())
                      .value();
  auto outcome = registry->Reload();
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition());
  EXPECT_EQ(registry->Snapshot().reloads_rejected, 1u);
}

TEST_F(ModelRegistryTest, HealthReadyAndReloadOpsThroughHandleLine) {
  ModelRegistry registry(Loader());
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();

  std::string health = (*service)->HandleLine("{\"op\":\"health\",\"id\":1}");
  EXPECT_NE(health.find("\"status\":\"serving\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"model_version\":1"), std::string::npos) << health;

  std::string ready = (*service)->HandleLine("{\"op\":\"ready\",\"id\":2}");
  EXPECT_NE(ready.find("\"ready\":true"), std::string::npos) << ready;

  (*service)->SetDraining(true);
  health = (*service)->HandleLine("{\"op\":\"health\",\"id\":3}");
  EXPECT_NE(health.find("\"status\":\"draining\""), std::string::npos)
      << health;
  ready = (*service)->HandleLine("{\"op\":\"ready\",\"id\":4}");
  EXPECT_NE(ready.find("\"ready\":false"), std::string::npos) << ready;
  (*service)->SetDraining(false);

  std::string reload =
      (*service)->HandleLine("{\"op\":\"reload\",\"id\":5}");
  EXPECT_NE(reload.find("\"ok\":true"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"model_version\":2"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"canary_divergence\":"), std::string::npos)
      << reload;

  // Stats carries the registry block.
  std::string stats = (*service)->HandleLine("{\"op\":\"stats\",\"id\":6}");
  EXPECT_NE(stats.find("\"model_version\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"reloads_ok\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"model_fingerprint\":"), std::string::npos)
      << stats;
}

TEST_F(ModelRegistryTest, V1FormatModelServesThroughRegistry) {
  // Downgrade a copy of model A to the pre-fingerprint v1 format: old
  // header, no fingerprint / max_instances keys, no end sentinel.
  const std::string v1_path = ::testing::TempDir() + "/registry." +
                              std::to_string(::getpid()) + ".v1.model";
  {
    std::ifstream in(*path_a_, std::ios::binary);
    std::ofstream out(v1_path, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    std::ifstream mlp_in(*path_a_ + ".mlp", std::ios::binary);
    std::ofstream mlp_out(v1_path + ".mlp",
                          std::ios::binary | std::ios::trunc);
    mlp_out << mlp_in.rdbuf();
  }
  RewriteModelFile(v1_path, [](std::vector<std::string>* lines) {
    ASSERT_FALSE(lines->empty());
    (*lines)[0] = "leapme-matcher 1";
    lines->erase(std::remove_if(lines->begin(), lines->end(),
                                [](const std::string& line) {
                                  return line.rfind("fingerprint ", 0) == 0 ||
                                         line.rfind("max_instances ", 0) ==
                                             0 ||
                                         line == "end leapme";
                                }),
                 lines->end());
  });

  ModelRegistry registry(Loader());
  ASSERT_TRUE(registry.Init(v1_path).ok());
  EXPECT_EQ(registry.Snapshot().info.format_version, 1);

  auto service = MatcherService::Create(&registry);
  ASSERT_TRUE(service.ok()) << service.status();
  const auto pairs = SamplePairs(20);
  const std::vector<double> offline = OfflineScores(v1_path, pairs);
  auto scores = (*service)->Score(SpecsOf(pairs));
  ASSERT_TRUE(scores.ok()) << scores.status();
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]) << "pair " << i;
  }
  // The format version is visible on the wire for operators.
  std::string stats = (*service)->HandleLine("{\"op\":\"stats\",\"id\":1}");
  EXPECT_NE(stats.find("\"model_format_version\":1"), std::string::npos)
      << stats;
}

// Pinned into the TSan CI tier: generations swap while scoring threads
// hammer the service, and every response must be entirely model A's or
// entirely model B's scores — never a torn mix, never an error.
TEST_F(ModelRegistryTest, ReloadStressUnderConcurrentScoring) {
  RegistryOptions options;
  options.canary_threshold = 1.0;
  ModelRegistry registry(Loader(), options);
  ASSERT_TRUE(registry.Init(*path_a_).ok());
  ServiceOptions service_options;
  service_options.max_batch = 16;
  auto service = MatcherService::Create(&registry, service_options);
  ASSERT_TRUE(service.ok()) << service.status();

  const auto pairs = SamplePairs(8);
  const auto specs = SpecsOf(pairs);
  const std::vector<double> offline_a = OfflineScores(*path_a_, pairs);
  const std::vector<double> offline_b = OfflineScores(*path_b_, pairs);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto scores = (*service)->Score(specs);
        ASSERT_TRUE(scores.ok()) << scores.status();
        const bool all_a = std::equal(scores->begin(), scores->end(),
                                      offline_a.begin());
        const bool all_b = std::equal(scores->begin(), scores->end(),
                                      offline_b.begin());
        if (!all_a && !all_b) torn.fetch_add(1);
        checked.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    auto outcome = registry.Reload(round % 2 == 0 ? *path_b_ : *path_a_);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  stop.store(true);
  for (std::thread& thread : scorers) thread.join();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  const RegistryStats stats = registry.Snapshot();
  EXPECT_EQ(stats.reloads_ok, 10u);
  EXPECT_EQ(stats.info.version, 11u);
}

}  // namespace
}  // namespace leapme::serve
