// Chaos tests: the serve and persistence paths under armed fault
// injection. Every failure must surface as a typed error, a degraded
// (but well-formed) response, or a clean connection drop — never a
// hang, a silent wrong answer, or a loadable-but-corrupt model file.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
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
#include "serve/tcp_server.h"

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

/// Minimal blocking line client (same shape as tcp_server_test.cc).
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in address = {};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* out) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *out = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

PropertySpec SpecOf(const data::Dataset& dataset, data::PropertyId id) {
  PropertySpec spec;
  spec.name = dataset.property(id).name;
  for (const data::InstanceValue& instance : dataset.instances(id)) {
    spec.values.push_back(instance.value);
  }
  return spec;
}

std::string SpecJson(const data::Dataset& dataset, data::PropertyId id) {
  std::string out = "{\"name\":";
  AppendJsonString(&out, dataset.property(id).name);
  out += ",\"values\":[";
  const auto& instances = dataset.instances(id);
  for (size_t i = 0; i < instances.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(&out, instances[i].value);
  }
  out += "]}";
  return out;
}

std::string ScoreRequestJson(const data::Dataset& dataset,
                             const std::vector<data::PropertyPair>& pairs,
                             int64_t id) {
  std::string line = "{\"op\":\"score\",\"id\":" + std::to_string(id) +
                     ",\"pairs\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) line += ',';
    line += "{\"a\":" + SpecJson(dataset, pairs[i].a) +
            ",\"b\":" + SpecJson(dataset, pairs[i].b) + "}";
  }
  line += "]}";
  return line;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 91;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 92,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
    cached_model_ = new embedding::CachingEmbeddingModel(base_model_, 4096);
    Rng rng(93);
    std::vector<data::SourceId> sources{0, 1, 2};
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    trained_ = new core::LeapmeMatcher(base_model_);
    ASSERT_TRUE(trained_->Fit(*dataset_, training).ok());
    const std::string path = ::testing::TempDir() + "/chaos." +
                             std::to_string(::getpid()) + ".model";
    ASSERT_TRUE(trained_->SaveModel(path).ok());
    matcher_ = new core::LeapmeMatcher(
        core::LeapmeMatcher::LoadModel(cached_model_, path).value());
  }

  void TearDown() override { faults::FaultInjector::Global().Disarm(); }

  static std::string Path(const char* name) {
    return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "." +
           name;
  }

  static std::vector<data::PropertyPair> SomePairs(size_t limit) {
    std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
    pairs.resize(std::min(pairs.size(), limit));
    return pairs;
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* trained_;  // owns nothing persisted
  static core::LeapmeMatcher* matcher_;  // restored through the cache
};

data::Dataset* ServeChaosTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* ServeChaosTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* ServeChaosTest::cached_model_ = nullptr;
core::LeapmeMatcher* ServeChaosTest::trained_ = nullptr;
core::LeapmeMatcher* ServeChaosTest::matcher_ = nullptr;

// ---------------------------------------------------------------------
// Persistence under injected faults.

TEST_F(ServeChaosTest, InjectedSaveErrorFailsWithoutCreatingTheFile) {
  const std::string path = Path("save_error.model");
  ScopedFaults faults("model.save:error");
  const Status status = trained_->SaveModel(path);
  EXPECT_TRUE(status.IsIoError()) << status;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ServeChaosTest, TornWriteIsReportedAndTheRemnantNeverLoads) {
  // Learn the intact size first, then replay truncations at awkward
  // offsets — including cuts a few bytes from the end, where a shortened
  // final float would still parse if the format had no end marker.
  const std::string clean = Path("torn_clean.model");
  ASSERT_TRUE(trained_->SaveModel(clean).ok());
  const uint64_t full = std::filesystem::file_size(clean);
  ASSERT_GT(full, 32u);

  const std::vector<uint64_t> cuts = {1,        16,       64,      full / 2,
                                      full - 8, full - 3, full - 2};
  for (const uint64_t cut : cuts) {
    const std::string path = Path("torn.model");
    ScopedFaults faults("model.save:trunc:bytes=" + std::to_string(cut));
    const Status status = trained_->SaveModel(path);
    EXPECT_TRUE(status.IsIoError()) << "cut=" << cut << ": " << status;
    ASSERT_EQ(std::filesystem::file_size(path), cut) << "cut=" << cut;

    faults::FaultInjector::Global().Disarm();
    auto loaded = core::LeapmeMatcher::LoadModel(base_model_, path);
    EXPECT_FALSE(loaded.ok())
        << "a model truncated to " << cut << " of " << full
        << " bytes must not load";
  }
}

TEST_F(ServeChaosTest, InjectedLoadErrorIsTypedAndRecoverable) {
  const std::string path = Path("load_error.model");
  ASSERT_TRUE(trained_->SaveModel(path).ok());
  {
    ScopedFaults faults("model.load:error");
    auto loaded = core::LeapmeMatcher::LoadModel(base_model_, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status();
  }
  // Disarmed, the very same file loads.
  EXPECT_TRUE(core::LeapmeMatcher::LoadModel(base_model_, path).ok());
}

// ---------------------------------------------------------------------
// Graceful degradation in the scoring service.

TEST_F(ServeChaosTest, EmbeddingLookupFaultDegradesInsteadOfFailing) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const auto pairs = SomePairs(6);
  const std::string request = ScoreRequestJson(*dataset_, pairs, 7);

  std::string response;
  {
    // Every lookup fails: the whole request is served from masked
    // features rather than erroring out.
    ScopedFaults faults("embedding.lookup:error");
    response = service.HandleLine(request);
  }
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed->Find("ok")->AsBool()) << response;
  const JsonValue* degraded = parsed->Find("degraded");
  ASSERT_NE(degraded, nullptr) << response;
  EXPECT_TRUE(degraded->AsBool());
  const auto& scores = parsed->Find("scores")->AsArray();
  ASSERT_EQ(scores.size(), pairs.size());
  for (const JsonValue& score : scores) {
    ASSERT_TRUE(score.is_number());
    EXPECT_TRUE(std::isfinite(score.AsNumber()));
  }
  const ServiceStats stats = service.Snapshot();
  EXPECT_GE(stats.degraded_responses, 1u);

  // Degraded features were never cached: the same request, disarmed, is
  // full-fidelity and bit-identical to the offline scorer.
  const std::string healthy = service.HandleLine(request);
  auto reparsed = JsonValue::Parse(healthy);
  ASSERT_TRUE(reparsed.ok()) << healthy;
  EXPECT_EQ(reparsed->Find("degraded"), nullptr) << healthy;
  const std::vector<double> offline =
      matcher_->ScorePairsOn(*dataset_, pairs).value();
  const auto& healthy_scores = reparsed->Find("scores")->AsArray();
  ASSERT_EQ(healthy_scores.size(), offline.size());
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(healthy_scores[i].AsNumber(), offline[i]) << "pair " << i;
  }
}

TEST_F(ServeChaosTest, DegradedScoresDifferButStayInRange) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const auto pairs = SomePairs(6);
  bool degraded = false;
  std::vector<PropertyPairSpec> specs;
  for (const data::PropertyPair& pair : pairs) {
    specs.push_back({SpecOf(*dataset_, pair.a), SpecOf(*dataset_, pair.b)});
  }
  ScopedFaults faults("embedding.lookup:error");
  auto scores = service.Score(specs, Deadline::Infinite(), &degraded);
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_TRUE(degraded);
  for (const double score : *scores) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST_F(ServeChaosTest, AllocFaultShedsWithRetryHint) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const auto pairs = SomePairs(4);
  const std::string request = ScoreRequestJson(*dataset_, pairs, 3);

  std::string response;
  {
    ScopedFaults faults("alloc:error:n=1");
    response = service.HandleLine(request);
  }
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->Find("code")->AsString(), "ResourceExhausted");
  const JsonValue* hint = error->Find("retry_after_ms");
  ASSERT_NE(hint, nullptr) << response;
  EXPECT_GT(hint->AsNumber(), 0.0);
  EXPECT_GE(service.Snapshot().rejected_overload, 1u);

  // The fault was capped at one fire; the retry succeeds.
  const std::string retried = service.HandleLine(request);
  auto reparsed = JsonValue::Parse(retried);
  ASSERT_TRUE(reparsed.ok()) << retried;
  EXPECT_TRUE(reparsed->Find("ok")->AsBool()) << retried;
}

TEST_F(ServeChaosTest, InjectedDelayPastDeadlineIsTyped) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  const auto pairs = SomePairs(2);
  const std::string request = ScoreRequestJson(*dataset_, pairs, 5);

  // Every embedding lookup stalls 40ms against a 10ms budget.
  ScopedFaults faults("embedding.lookup:delay:ms=40");
  const std::string response =
      service.HandleLine(request, Deadline::AfterMs(10));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->Find("code")->AsString(), "DeadlineExceeded") << response;
  EXPECT_GE(service.Snapshot().deadline_exceeded, 1u);
}

// ---------------------------------------------------------------------
// The TCP transport under injected socket faults.

TEST_F(ServeChaosTest, ShortReadsAndWritesStillFrameCorrectly) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  const auto pairs = SomePairs(4);
  const std::vector<double> offline =
      matcher_->ScorePairsOn(*dataset_, pairs).value();

  // Every transfer is capped to a handful of bytes in both directions;
  // framing and scores must be unaffected, just slower.
  ScopedFaults faults("serve.read:short:bytes=3;serve.write:short:bytes=5");
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int request = 0; request < 3; ++request) {
    ASSERT_TRUE(
        client.SendLine(ScoreRequestJson(*dataset_, pairs, request)));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    ASSERT_TRUE(parsed->Find("ok")->AsBool()) << response;
    const auto& scores = parsed->Find("scores")->AsArray();
    ASSERT_EQ(scores.size(), offline.size());
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(scores[i].AsNumber(), offline[i]) << "pair " << i;
    }
  }
  server.Stop();
}

TEST_F(ServeChaosTest, InjectedReadErrorDropsTheConnectionCleanly) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  {
    ScopedFaults faults("serve.read:error:n=1");
    TestClient victim(server.port());
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.SendLine(R"({"op":"ping","id":1})"));
    // The injected read failure closes the connection without a reply —
    // a clean EOF, not a hang or a partial line.
    std::string response;
    EXPECT_FALSE(victim.ReadLine(&response));
  }

  // The server survives and serves the next connection normally.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping","id":2})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":2,"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(ServeChaosTest, InjectedAcceptFaultDropsThenRecovers) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  {
    ScopedFaults faults("serve.accept:error:n=1");
    TestClient victim(server.port());
    // The TCP handshake completes (the kernel accepted), but the server
    // drops the connection before serving it.
    if (victim.connected()) {
      victim.SendLine(R"({"op":"ping"})");
      std::string response;
      EXPECT_FALSE(victim.ReadLine(&response));
    }
  }

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"ok":true,"op":"ping"})");
  server.Stop();
}

// ---------------------------------------------------------------------
// Transport faults on a multi-loop reactor. The tests above run at the
// session default loop count (one unless LEAPME_EVENT_LOOP_THREADS
// overrides it); these re-run the serve.read / serve.write faults with
// 4 loop threads, so multi-loop dispatch is always chaos-covered
// regardless of environment.

TEST_F(ServeChaosTest, ReactorShortIoFaultsFrameCorrectlyAcrossFourLoops) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.event_loop_threads = 4;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  const auto pairs = SomePairs(4);
  const std::vector<double> offline =
      matcher_->ScorePairsOn(*dataset_, pairs).value();

  ScopedFaults faults("serve.read:short:bytes=3;serve.write:short:bytes=5");
  // Several connections so the round-robin spreads them over the loops;
  // byte-capped transfers must not bleed frames between connections.
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  for (int request = 0; request < 2; ++request) {
    for (size_t c = 0; c < clients.size(); ++c) {
      ASSERT_TRUE(clients[c]->SendLine(ScoreRequestJson(
          *dataset_, pairs, static_cast<int64_t>(c) * 10 + request)));
    }
    for (size_t c = 0; c < clients.size(); ++c) {
      std::string response;
      ASSERT_TRUE(clients[c]->ReadLine(&response));
      auto parsed = JsonValue::Parse(response);
      ASSERT_TRUE(parsed.ok()) << response;
      ASSERT_TRUE(parsed->Find("ok")->AsBool()) << response;
      EXPECT_EQ(parsed->Find("id")->AsNumber(),
                static_cast<double>(c) * 10 + request);
      const auto& scores = parsed->Find("scores")->AsArray();
      ASSERT_EQ(scores.size(), offline.size());
      for (size_t i = 0; i < offline.size(); ++i) {
        EXPECT_EQ(scores[i].AsNumber(), offline[i]) << "pair " << i;
      }
    }
  }
  server.Stop();
}

TEST_F(ServeChaosTest, ReactorInjectedReadErrorDropsConnectionCleanly) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.event_loop_threads = 4;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  {
    ScopedFaults faults("serve.read:error:n=1");
    TestClient victim(server.port());
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.SendLine(R"({"op":"ping","id":1})"));
    std::string response;
    EXPECT_FALSE(victim.ReadLine(&response));
  }

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping","id":2})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":2,"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(ServeChaosTest, ReactorInjectedWriteErrorDropsConnectionCleanly) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.event_loop_threads = 4;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  {
    ScopedFaults faults("serve.write:error:n=1");
    TestClient victim(server.port());
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.SendLine(R"({"op":"ping","id":1})"));
    // The response write fails: the connection drops without the reply
    // ever arriving — EOF, not a hang.
    std::string response;
    EXPECT_FALSE(victim.ReadLine(&response));
  }

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping","id":2})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":2,"ok":true,"op":"ping"})");
  server.Stop();
}

}  // namespace
}  // namespace leapme::serve
