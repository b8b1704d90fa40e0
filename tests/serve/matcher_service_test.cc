// Tests for MatcherService: micro-batched scoring that is bit-identical
// to the offline scorer, the property-feature LRU, top-k ordering, and
// the HandleLine protocol dispatch.

#include "serve/matcher_service.h"

#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/faults/fault_injector.h"
#include "common/kernels/kernels.h"
#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "serve/json.h"

namespace leapme::serve {
namespace {

/// The client-side view of a dataset property: surface name plus instance
/// values, exactly what ScorePairsOn derives features from.
PropertySpec SpecOf(const data::Dataset& dataset, data::PropertyId id) {
  PropertySpec spec;
  spec.name = dataset.property(id).name;
  for (const data::InstanceValue& instance : dataset.instances(id)) {
    spec.values.push_back(instance.value);
  }
  return spec;
}

class MatcherServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 71;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 72,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
    cached_model_ =
        new embedding::CachingEmbeddingModel(base_model_, 4096);

    // Train offline, persist, and restore through the embedding cache —
    // the exact path `leapme serve` takes.
    Rng rng(73);
    std::vector<data::SourceId> sources{0, 1, 2};
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    core::LeapmeMatcher trained(base_model_);
    ASSERT_TRUE(trained.Fit(*dataset_, training).ok());
    // Per-process name: ctest runs each test in its own process, and
    // concurrent SetUpTestSuite calls must not race on one file.
    const std::string path = ::testing::TempDir() + "/service." +
                             std::to_string(::getpid()) + ".model";
    ASSERT_TRUE(trained.SaveModel(path).ok());
    matcher_ = new core::LeapmeMatcher(
        core::LeapmeMatcher::LoadModel(cached_model_, path).value());
  }

  /// Offline reference scores for cross-source pairs, via the restored
  /// matcher's batch path.
  static std::vector<double> OfflineScores(
      const std::vector<data::PropertyPair>& pairs) {
    return matcher_->ScorePairsOn(*dataset_, pairs).value();
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* matcher_;
};

data::Dataset* MatcherServiceTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* MatcherServiceTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* MatcherServiceTest::cached_model_ = nullptr;
core::LeapmeMatcher* MatcherServiceTest::matcher_ = nullptr;

TEST_F(MatcherServiceTest, ScoresAreBitIdenticalToOffline) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 40));
  const std::vector<double> offline = OfflineScores(pairs);

  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  auto scores = service.Score(specs);
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_EQ(scores->size(), offline.size());
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]) << "pair " << i;
  }
}

TEST_F(MatcherServiceTest, OneRequestFormsOneBatch) {
  ServiceOptions options;
  options.max_batch = 64;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), options);
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 10));
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  ASSERT_TRUE(service.Score(specs).ok());
  const ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.pairs_scored, specs.size());
  // All pairs of the request were enqueued together, so the batcher took
  // them in one (or at most a few) Infer calls — never one per pair.
  EXPECT_LT(stats.batches, specs.size());
  uint64_t multi_pair_batches = 0;
  for (size_t i = 1; i < stats.batch_histogram.size(); ++i) {
    multi_pair_batches += stats.batch_histogram[i];
  }
  EXPECT_GT(multi_pair_batches, 0u) << "no batch with size > 1";
}

TEST_F(MatcherServiceTest, MaxBatchSplitsLargeRequests) {
  ServiceOptions options;
  options.max_batch = 4;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), options);
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 10));
  const std::vector<double> offline = OfflineScores(pairs);
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  auto scores = service.Score(specs);
  ASSERT_TRUE(scores.ok());
  // Splitting into max_batch-sized chunks does not change any score.
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]);
  }
  EXPECT_GE(service.Snapshot().batches, 3u);  // ceil(10 / 4)
}

TEST_F(MatcherServiceTest, PropertyCacheHitsOnRepeatedProperties) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 10));
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  ASSERT_TRUE(service.Score(specs).ok());
  const uint64_t misses_after_first = service.Snapshot().property_cache_misses;
  ASSERT_TRUE(service.Score(specs).ok());
  const ServiceStats stats = service.Snapshot();
  // Second pass re-used every cached feature vector.
  EXPECT_EQ(stats.property_cache_misses, misses_after_first);
  EXPECT_GE(stats.property_cache_hits, specs.size());
}

TEST_F(MatcherServiceTest, TinyCacheStillScoresCorrectly) {
  RegistryOptions options;
  options.property_cache_capacity = 1;  // constant eviction
  auto registry =
      ModelRegistry::WrapExisting(matcher_, cached_model_, options).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 10));
  const std::vector<double> offline = OfflineScores(pairs);
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  auto scores = service.Score(specs);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ((*scores)[i], offline[i]);
  }
}

TEST_F(MatcherServiceTest, EmbeddingCacheGetsHits) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 20));
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  ASSERT_TRUE(service.Score(specs).ok());
  // Product vocabularies repeat tokens across properties, so the token
  // cache must be hitting by now.
  EXPECT_GT(service.Snapshot().embedding_cache_hits, 0u);
}

TEST_F(MatcherServiceTest, ConcurrentCallersGetBitIdenticalScores) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 24));
  const std::vector<double> offline = OfflineScores(pairs);
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Different slices per thread so batches mix pairs from different
      // requests.
      std::vector<PropertyPairSpec> slice(
          specs.begin() + (t % 3), specs.end());
      auto scores = service.Score(slice);
      ASSERT_TRUE(scores.ok()) << scores.status();
      results[t] = std::move(scores).value();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const size_t offset = t % 3;
    ASSERT_EQ(results[t].size(), specs.size() - offset);
    for (size_t i = 0; i < results[t].size(); ++i) {
      EXPECT_EQ(results[t][i], offline[i + offset])
          << "thread " << t << " pair " << i;
    }
  }
}

TEST_F(MatcherServiceTest, TopKOrdersByScoreThenIndex) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const data::PropertyId query_id = 0;
  std::vector<data::PropertyId> candidate_ids;
  for (data::PropertyId id = 1;
       id < dataset_->property_count() && candidate_ids.size() < 12; ++id) {
    candidate_ids.push_back(id);
  }
  ASSERT_GE(candidate_ids.size(), 4u);

  std::vector<data::PropertyPair> pairs;
  for (data::PropertyId id : candidate_ids) {
    pairs.push_back({query_id, id});
  }
  const std::vector<double> offline = OfflineScores(pairs);

  std::vector<PropertySpec> candidates;
  for (data::PropertyId id : candidate_ids) {
    candidates.push_back(SpecOf(*dataset_, id));
  }
  const size_t k = 4;
  auto matches =
      service.TopK(SpecOf(*dataset_, query_id), candidates, k);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_EQ(matches->size(), k);
  for (size_t i = 0; i < matches->size(); ++i) {
    EXPECT_EQ((*matches)[i].score, offline[(*matches)[i].index]);
    if (i > 0) {
      const MatchResult& prev = (*matches)[i - 1];
      const MatchResult& curr = (*matches)[i];
      EXPECT_TRUE(prev.score > curr.score ||
                  (prev.score == curr.score && prev.index < curr.index));
    }
  }
  // The k-th result dominates every unreturned candidate.
  double kth = matches->back().score;
  for (size_t i = 0; i < offline.size(); ++i) {
    bool returned = false;
    for (const MatchResult& match : *matches) {
      if (match.index == i) returned = true;
    }
    if (!returned) {
      EXPECT_LE(offline[i], kth);
    }
  }
}

TEST_F(MatcherServiceTest, RejectsEmptyRequests) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  EXPECT_TRUE(service.Score({}).status().IsInvalidArgument());
  EXPECT_TRUE(service.TopK(PropertySpec{"q", {}}, {}, 3)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.TopK(PropertySpec{"q", {}},
                           {PropertySpec{"c", {}}}, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(MatcherServiceTest, HandleLineDispatchesAndNeverThrows) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  // ping
  auto ping = JsonValue::Parse(service.HandleLine(R"({"op":"ping","id":1})"));
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->Find("ok")->AsBool());
  // score, checked against the offline scorer
  std::vector<data::PropertyPair> pairs = {dataset_->AllCrossSourcePairs()[0]};
  const double offline = OfflineScores(pairs)[0];
  std::string line = R"({"op":"score","id":2,"pairs":[{"a":)";
  auto append_spec = [&](const PropertySpec& spec) {
    line += R"({"name":)";
    AppendJsonString(&line, spec.name);
    line += R"(,"values":[)";
    for (size_t i = 0; i < spec.values.size(); ++i) {
      if (i > 0) line += ',';
      AppendJsonString(&line, spec.values[i]);
    }
    line += "]}";
  };
  append_spec(SpecOf(*dataset_, pairs[0].a));
  line += R"(,"b":)";
  append_spec(SpecOf(*dataset_, pairs[0].b));
  line += "}]}";
  auto response = JsonValue::Parse(service.HandleLine(line));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->Find("ok")->AsBool());
  EXPECT_EQ(response->Find("scores")->AsArray()[0].AsNumber(), offline);
  // stats
  auto stats = JsonValue::Parse(service.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->Find("ok")->AsBool());
  // The active kernel dispatch path is reported and matches the process
  // wide choice made at startup.
  const JsonValue* kernel = stats->Find("stats")->Find("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->AsString(), kernels::ActiveKernelName());
  // garbage comes back as ok:false, never a crash
  for (const char* bad :
       {"", "garbage", "{}", R"({"op":"score","pairs":"x"})",
        R"({"op":"nope"})", "[1,2,3]", "{\"op\":\"ping\"", "\x01\x02"}) {
    auto error = JsonValue::Parse(service.HandleLine(bad));
    ASSERT_TRUE(error.ok()) << bad;
    EXPECT_FALSE(error->Find("ok")->AsBool()) << bad;
  }
  EXPECT_GT(service.Snapshot().request_errors, 0u);
}

TEST_F(MatcherServiceTest, CreateValidatesMatcherAndCache) {
  // Happy path: the fitted matcher and its own cache are accepted.
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_);
  ASSERT_TRUE(registry.ok()) << registry.status();
  auto service = MatcherService::Create(registry->get());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_NE(*service, nullptr);

  EXPECT_TRUE(ModelRegistry::WrapExisting(nullptr, cached_model_)
                  .status()
                  .IsInvalidArgument());

  core::LeapmeMatcher unfitted(base_model_);
  EXPECT_TRUE(ModelRegistry::WrapExisting(&unfitted, cached_model_)
                  .status()
                  .IsFailedPrecondition());

  // A cache over a 32-d embedding model cannot front a 16-d pipeline.
  auto wide_model = embedding::SyntheticEmbeddingModel::Build(
                        data::DomainClusters(data::TvDomain()),
                        {.dimension = 32,
                         .seed = 72,
                         .oov_policy = embedding::OovPolicy::kHashedVector})
                        .value();
  embedding::CachingEmbeddingModel wide_cache(&wide_model, 64);
  auto mismatched = ModelRegistry::WrapExisting(matcher_, &wide_cache);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsFailedPrecondition());
  EXPECT_NE(mismatched.status().message().find("32"), std::string::npos)
      << mismatched.status();
}

TEST_F(MatcherServiceTest, StatsReportPerStageFeatureTimings) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 8));
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  ASSERT_TRUE(service.Score(specs).ok());

  const ServiceStats stats = service.Snapshot();
  ASSERT_EQ(stats.feature_stages.size(), 6u);
  uint64_t total_pair_calls = 0;
  for (const StageTimingStat& stage : stats.feature_stages) {
    EXPECT_EQ(stage.version, 1);
    total_pair_calls += stage.pair_calls;
  }
  EXPECT_GE(total_pair_calls, 6 * specs.size());

  // The stats op exposes the same counters over the wire.
  const std::string response = service.HandleLine(R"({"op":"stats"})");
  auto json = JsonValue::Parse(response);
  ASSERT_TRUE(json.ok()) << response;
  EXPECT_TRUE(json->Find("ok")->AsBool());
  for (const char* name :
       {"feature_stages", "char_class_meta", "token_class_meta",
        "numeric_value", "value_embedding", "name_embedding",
        "string_distances", "pair_ns"}) {
    EXPECT_NE(response.find(name), std::string::npos)
        << "stats response missing " << name << ": " << response;
  }
}

TEST_F(MatcherServiceTest, LatencyStatsCountEveryRequest) {
  ServiceOptions options;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), options);
  const data::PropertyPair pair = dataset_->AllCrossSourcePairs()[0];
  const std::vector<PropertyPairSpec> specs = {
      {SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)}};
  // More calls than any fixed sample window would hold: the quantiles
  // must weigh every request since start, not only the most recent ones.
  constexpr uint64_t kCalls = 5000;
  for (uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(service.Score(specs).ok());
  }
  const ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.latency_samples, kCalls);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_LE(stats.latency_p50_us, stats.latency_p99_us);
}

TEST_F(MatcherServiceTest, FailedTopKStillRecordsLatency) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const std::vector<PropertySpec> candidates = {SpecOf(*dataset_, 1),
                                                SpecOf(*dataset_, 2)};
  ASSERT_TRUE(faults::FaultInjector::Global().Arm("serve.score:error").ok());
  auto matches = service.TopK(SpecOf(*dataset_, 0), candidates, 1);
  faults::FaultInjector::Global().Disarm();
  // The call got past validation, so it is a sample even though scoring
  // failed.
  EXPECT_FALSE(matches.ok());
  EXPECT_EQ(service.Snapshot().latency_samples, 1u);
}

}  // namespace
}  // namespace leapme::serve
