// Serve-side tests for the catalog-index mode: ModelRegistry's
// AttachCatalog + index_match round trips through MatcherService,
// blocking stats in the stats op, deadline handling, and the chaos case —
// an embedding fault during candidate generation degrades to a
// full-catalog scan instead of failing the request.

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/faults/fault_injector.h"
#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "serve/json.h"
#include "serve/matcher_service.h"

namespace leapme::serve {
namespace {

/// Arms the process-wide injector for one test scope; always disarms on
/// the way out so a failing assertion cannot poison later tests.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    EXPECT_TRUE(faults::FaultInjector::Global().Arm(spec).ok()) << spec;
  }
  ~ScopedFaults() { faults::FaultInjector::Global().Disarm(); }
};

std::string IndexMatchRequest(const data::Dataset& dataset,
                              data::PropertyId id, size_t k) {
  std::string request = "{\"op\":\"index_match\",\"id\":7,\"property\":";
  request += "{\"name\":";
  AppendJsonString(&request, dataset.property(id).name);
  request += ",\"values\":[";
  const auto& instances = dataset.instances(id);
  for (size_t i = 0; i < instances.size(); ++i) {
    if (i > 0) request.push_back(',');
    AppendJsonString(&request, instances[i].value);
  }
  request += "]},\"k\":" + std::to_string(k) + "}";
  return request;
}

class IndexMatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 91;
    catalog_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 92,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
    cached_model_ =
        new embedding::CachingEmbeddingModel(base_model_, 4096);

    Rng rng(93);
    std::vector<data::SourceId> sources{0, 1, 2};
    auto training =
        data::BuildTrainingPairs(*catalog_, sources, 2.0, rng).value();
    core::LeapmeMatcher trained(base_model_);
    ASSERT_TRUE(trained.Fit(*catalog_, training).ok());
    const std::string path = ::testing::TempDir() + "/index_match." +
                             std::to_string(::getpid()) + ".model";
    ASSERT_TRUE(trained.SaveModel(path).ok());
    matcher_ = new core::LeapmeMatcher(
        core::LeapmeMatcher::LoadModel(cached_model_, path).value());
  }

  /// A fresh service with the catalog attached through `spec`.
  std::unique_ptr<MatcherService> MakeIndexedService(
      const std::string& spec = "union(name-token,embedding-lsh)") {
    registry_ = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
    EXPECT_TRUE(registry_->AttachCatalog(catalog_, spec).ok());
    return std::make_unique<MatcherService>(registry_.get());
  }

  std::unique_ptr<ModelRegistry> registry_;

  static data::Dataset* catalog_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* matcher_;
};

data::Dataset* IndexMatchTest::catalog_ = nullptr;
embedding::SyntheticEmbeddingModel* IndexMatchTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* IndexMatchTest::cached_model_ = nullptr;
core::LeapmeMatcher* IndexMatchTest::matcher_ = nullptr;

TEST_F(IndexMatchTest, RoundTripReturnsRankedCatalogMatches) {
  auto service = MakeIndexedService();
  const std::string response =
      service->HandleLine(IndexMatchRequest(*catalog_, 0, 3));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed->Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed->Find("op")->AsString(), "index_match");
  EXPECT_EQ(parsed->Find("id")->AsNumber(), 7.0);
  ASSERT_NE(parsed->Find("candidates"), nullptr);
  EXPECT_GT(parsed->Find("candidates")->AsNumber(), 0.0);
  ASSERT_NE(parsed->Find("blocking_us"), nullptr);
  const auto& matches = parsed->Find("matches")->AsArray();
  ASSERT_FALSE(matches.empty());
  ASSERT_LE(matches.size(), 3u);
  double previous = 1.0;
  for (const JsonValue& match : matches) {
    const double score = match.Find("score")->AsNumber();
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, previous);
    previous = score;
    const auto id =
        static_cast<data::PropertyId>(match.Find("property")->AsNumber());
    EXPECT_EQ(match.Find("name")->AsString(), catalog_->property(id).name);
    EXPECT_EQ(match.Find("source")->AsString(),
              catalog_->source_name(catalog_->property(id).source));
  }
}

TEST_F(IndexMatchTest, RepeatedQueriesAreDeterministic) {
  auto service = MakeIndexedService();
  const std::string request = IndexMatchRequest(*catalog_, 2, 5);
  const std::string first = service->HandleLine(request);
  const std::string second = service->HandleLine(request);
  // Everything but the wall-clock blocking_us must be identical —
  // candidate count, match set, order, and exact score serialization.
  const auto matches_part = [](const std::string& response) {
    const size_t at = response.find("\"matches\"");
    EXPECT_NE(at, std::string::npos) << response;
    return response.substr(at);
  };
  EXPECT_EQ(matches_part(first), matches_part(second));
  auto parsed_first = JsonValue::Parse(first);
  auto parsed_second = JsonValue::Parse(second);
  ASSERT_TRUE(parsed_first.ok());
  ASSERT_TRUE(parsed_second.ok());
  EXPECT_EQ(parsed_first->Find("candidates")->AsNumber(),
            parsed_second->Find("candidates")->AsNumber());
}

TEST_F(IndexMatchTest, WithoutCatalogIsFailedPrecondition) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const std::string response =
      service.HandleLine(IndexMatchRequest(*catalog_, 0, 3));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
            "FailedPrecondition");
  // A refused index_match still counts as a request.
  const ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.index_requests, 1u);
  EXPECT_EQ(stats.request_errors, 1u);
}

TEST_F(IndexMatchTest, MissingPropertyFieldIsInvalidArgument) {
  auto service = MakeIndexedService();
  const std::string response =
      service->HandleLine("{\"op\":\"index_match\",\"id\":1}");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
            "InvalidArgument");
}

TEST_F(IndexMatchTest, ExpiredDeadlineIsDeadlineExceeded) {
  auto service = MakeIndexedService();
  const std::string response = service->HandleLine(
      IndexMatchRequest(*catalog_, 0, 3), Deadline::AfterMs(0));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
            "DeadlineExceeded");
}

TEST_F(IndexMatchTest, StatsReportCatalogAndBlockingCounters) {
  auto service = MakeIndexedService();
  ASSERT_TRUE(JsonValue::Parse(
                  service->HandleLine(IndexMatchRequest(*catalog_, 1, 2)))
                  .ok());
  ServiceStats stats = service->Snapshot();
  EXPECT_EQ(stats.index_requests, 1u);
  EXPECT_EQ(stats.catalog_properties, catalog_->property_count());
  EXPECT_GT(stats.index_candidates, 0u);
  EXPECT_GT(stats.blocking_us_total, 0.0);
  ASSERT_EQ(stats.blockers.size(), 3u);  // union + two children
  for (const BlockerStat& blocker : stats.blockers) {
    EXPECT_FALSE(blocker.name.empty());
    // BuildIndex counted one batch call per blocker; the query walked
    // the tree once more.
    EXPECT_GE(blocker.batch_calls + blocker.queries, 1u);
  }

  const std::string response = service->HandleLine("{\"op\":\"stats\"}");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  const JsonValue* wire = parsed->Find("stats");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->Find("index_requests")->AsNumber(), 1.0);
  EXPECT_EQ(wire->Find("catalog_properties")->AsNumber(),
            static_cast<double>(catalog_->property_count()));
  EXPECT_EQ(wire->Find("blocking")->AsArray().size(), 3u);
}

TEST_F(IndexMatchTest, EmbeddingFaultDuringBlockingDegradesToFullScan) {
  auto service = MakeIndexedService();
  std::string response;
  {
    ScopedFaults faults("embedding.lookup:error");
    response = service->HandleLine(IndexMatchRequest(*catalog_, 0, 3));
  }
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  // Degraded but served: blocking failed, so every catalog property was
  // scanned, and the response says so instead of failing.
  EXPECT_TRUE(parsed->Find("ok")->AsBool()) << response;
  ASSERT_NE(parsed->Find("degraded"), nullptr);
  EXPECT_TRUE(parsed->Find("degraded")->AsBool());
  EXPECT_EQ(parsed->Find("candidates")->AsNumber(),
            static_cast<double>(catalog_->property_count()));
  EXPECT_FALSE(parsed->Find("matches")->AsArray().empty());
  EXPECT_GE(service->Snapshot().degraded_responses, 1u);
}

}  // namespace
}  // namespace leapme::serve
