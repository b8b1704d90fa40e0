// End-to-end tests for the TCP scoring server: ephemeral-port startup,
// concurrent clients with bit-identical wire scores, protocol abuse
// (malformed JSON, oversized lines, half-closed connections), stats, and
// graceful shutdown.

#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
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
#include "serve/json.h"

namespace leapme::serve {
namespace {

/// Minimal blocking line client for tests.
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

  bool SendRaw(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  /// Reads until '\n'; false on EOF before a complete line.
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
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True once the server closes its side (EOF on a fresh read).
  bool AtEof() {
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  void HalfCloseWrites() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

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

class TcpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 81;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 82,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
    cached_model_ = new embedding::CachingEmbeddingModel(base_model_, 4096);
    Rng rng(83);
    std::vector<data::SourceId> sources{0, 1, 2};
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    core::LeapmeMatcher trained(base_model_);
    ASSERT_TRUE(trained.Fit(*dataset_, training).ok());
    // Per-process name: ctest runs each test in its own process, and
    // concurrent SetUpTestSuite calls must not race on one file.
    const std::string path = ::testing::TempDir() + "/tcp." +
                             std::to_string(::getpid()) + ".model";
    ASSERT_TRUE(trained.SaveModel(path).ok());
    matcher_ = new core::LeapmeMatcher(
        core::LeapmeMatcher::LoadModel(cached_model_, path).value());
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* matcher_;
};

data::Dataset* TcpServerTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* TcpServerTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* TcpServerTest::cached_model_ = nullptr;
core::LeapmeMatcher* TcpServerTest::matcher_ = nullptr;

TEST_F(TcpServerTest, StartsOnEphemeralPortAndAnswersPing) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);  // port 0 = ephemeral
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping","id":1})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":1,"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(TcpServerTest, StartFailsOnBusyPort) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer first(&service);
  ASSERT_TRUE(first.Start().ok());
  ServerOptions options;
  options.port = first.port();
  TcpServer second(&service, options);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

TEST_F(TcpServerTest, WireScoresBitIdenticalUnderConcurrentClients) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 16));
  const std::vector<double> offline =
      matcher_->ScorePairsOn(*dataset_, pairs).value();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 3;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        ASSERT_TRUE(client.SendLine(
            ScoreRequestJson(*dataset_, pairs, c * 100 + r)));
        std::string response;
        ASSERT_TRUE(client.ReadLine(&response));
        responses[c].push_back(std::move(response));
      }
    });
  }
  for (auto& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<size_t>(kRequestsPerClient));
    for (int r = 0; r < kRequestsPerClient; ++r) {
      auto parsed = JsonValue::Parse(responses[c][r]);
      ASSERT_TRUE(parsed.ok()) << responses[c][r];
      ASSERT_TRUE(parsed->Find("ok")->AsBool()) << responses[c][r];
      EXPECT_DOUBLE_EQ(parsed->Find("id")->AsNumber(), c * 100 + r);
      const auto& scores = parsed->Find("scores")->AsArray();
      ASSERT_EQ(scores.size(), offline.size());
      for (size_t i = 0; i < offline.size(); ++i) {
        // Bit-identical across the wire, for every client and request.
        EXPECT_EQ(scores[i].AsNumber(), offline[i])
            << "client " << c << " request " << r << " pair " << i;
      }
    }
  }
  server.Stop();
}

TEST_F(TcpServerTest, StatsShowBatchingAndCacheHits) {
  ServiceOptions service_options;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), service_options);
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 12));
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (int r = 0; r < 2; ++r) {
      ASSERT_TRUE(client.SendLine(ScoreRequestJson(*dataset_, pairs, r)));
      std::string response;
      ASSERT_TRUE(client.ReadLine(&response));
    }
    ASSERT_TRUE(client.SendLine(R"({"op":"stats","id":9})"));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    const JsonValue* stats = parsed->Find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_GE(stats->Find("score_requests")->AsNumber(), 2.0);
    EXPECT_GE(stats->Find("pairs_scored")->AsNumber(),
              static_cast<double>(2 * pairs.size()));
    // A 12-pair request lands in one micro-batch, so the histogram has
    // entries beyond the size-1 bucket.
    const JsonValue* histogram = stats->Find("batch_histogram");
    ASSERT_NE(histogram, nullptr);
    bool has_multi_pair_bucket = false;
    for (const std::string& key : histogram->ObjectKeys()) {
      if (key != "1") has_multi_pair_bucket = true;
    }
    EXPECT_TRUE(has_multi_pair_bucket);
    // Same properties twice: both caches must be hitting.
    EXPECT_GT(stats->Find("property_cache_hits")->AsNumber(), 0.0);
    EXPECT_GT(stats->Find("embedding_cache_hits")->AsNumber(), 0.0);
    EXPECT_GE(stats->Find("connections_active")->AsNumber(), 1.0);
    EXPECT_GE(stats->Find("latency_samples")->AsNumber(), 2.0);
  }
  server.Stop();
}

TEST_F(TcpServerTest, MalformedLinesGetErrorsConnectionSurvives) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const char* bad :
       {"garbage", "{\"op\":\"score\"}", "[]", "{\"op\":\"ping\",\"id\":\"x\"}",
        "{\"op\":\"frob\"}"}) {
    ASSERT_TRUE(client.SendLine(bad));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << bad;
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    EXPECT_FALSE(parsed->Find("ok")->AsBool()) << bad;
  }
  // The connection is still usable afterwards.
  ASSERT_TRUE(client.SendLine(R"({"op":"ping"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(TcpServerTest, BlankAndCrlfLinesAreTolerated) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Empty lines are skipped, CR is stripped; both pings get answers.
  ASSERT_TRUE(client.SendRaw("\n\r\n{\"op\":\"ping\",\"id\":1}\r\n"
                             "{\"op\":\"ping\",\"id\":2}\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":1,"ok":true,"op":"ping"})");
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":2,"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(TcpServerTest, OversizedLineGetsErrorThenClose) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.max_line_bytes = 1024;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // 8 KiB without a newline blows the frame limit.
  std::string huge(8192, 'x');
  ASSERT_TRUE(client.SendRaw(huge));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST_F(TcpServerTest, HalfClosedConnectionStillGetsResponses) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 4));
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(ScoreRequestJson(*dataset_, pairs, 1)));
  client.HalfCloseWrites();  // we will not send anything else
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST_F(TcpServerTest, AbruptDisconnectsDoNotBreakTheServer) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 5; ++i) {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // Drop the connection mid-request (no newline sent).
    client.SendRaw("{\"op\":\"ping\"");
  }
  // Server still serves new clients.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"op":"ping"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, R"({"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(TcpServerTest, RequestLargerThanQueueBoundIsShedWithRetryHint) {
  ServiceOptions service_options;
  service_options.max_queue_pairs = 4;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), service_options);
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 8));  // 8 pairs > bound 4
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(ScoreRequestJson(*dataset_, pairs, 1)));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->Find("code")->AsString(), "ResourceExhausted");
  ASSERT_NE(error->Find("retry_after_ms"), nullptr) << response;
  EXPECT_GT(error->Find("retry_after_ms")->AsNumber(), 0.0);

  // Shedding is per request, not per connection: a request that fits the
  // bound scores normally on the same socket.
  pairs.resize(2);
  ASSERT_TRUE(client.SendLine(ScoreRequestJson(*dataset_, pairs, 2)));
  ASSERT_TRUE(client.ReadLine(&response));
  parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed->Find("ok")->AsBool()) << response;
  EXPECT_GE(service.Snapshot().rejected_overload, 1u);
  server.Stop();
}

TEST_F(TcpServerTest, SaturationPastQueueBoundNeverHangsOrDropsSilently) {
  ServiceOptions service_options;
  service_options.max_queue_pairs = 16;
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get(), service_options);
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  std::vector<data::PropertyPair> pairs = dataset_->AllCrossSourcePairs();
  pairs.resize(std::min<size_t>(pairs.size(), 8));
  const std::vector<double> offline =
      matcher_->ScorePairsOn(*dataset_, pairs).value();

  // 8 clients x 3 requests x 8 pairs against a 16-pair admission queue:
  // well past saturation. The contract under test: every connection gets
  // either a bit-identical scored reply or a well-formed typed rejection
  // carrying a retry hint — never a hang or a silent drop.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> scored{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        ASSERT_TRUE(client.SendLine(
            ScoreRequestJson(*dataset_, pairs, c * 100 + r)));
        std::string response;
        ASSERT_TRUE(client.ReadLine(&response)) << "client " << c;
        auto parsed = JsonValue::Parse(response);
        ASSERT_TRUE(parsed.ok()) << response;
        if (parsed->Find("ok")->AsBool()) {
          const auto& scores = parsed->Find("scores")->AsArray();
          ASSERT_EQ(scores.size(), offline.size());
          for (size_t i = 0; i < offline.size(); ++i) {
            EXPECT_EQ(scores[i].AsNumber(), offline[i])
                << "client " << c << " request " << r << " pair " << i;
          }
          scored.fetch_add(1);
        } else {
          const JsonValue* error = parsed->Find("error");
          ASSERT_NE(error, nullptr) << response;
          const std::string code = error->Find("code")->AsString();
          EXPECT_TRUE(code == "ResourceExhausted" || code == "Unavailable")
              << response;
          ASSERT_NE(error->Find("retry_after_ms"), nullptr) << response;
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(scored.load() + shed.load(), kClients * kRequestsPerClient);
  EXPECT_GT(scored.load(), 0);  // the server kept making progress
  server.Stop();
}

TEST_F(TcpServerTest, ConnectionCapRejectsInlineThenRecovers) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.max_connections = 1;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient occupant(server.port());
    ASSERT_TRUE(occupant.connected());
    ASSERT_TRUE(occupant.SendLine(R"({"op":"ping","id":1})"));
    std::string response;
    ASSERT_TRUE(occupant.ReadLine(&response));  // definitely registered

    // Past the cap: one inline Unavailable reply with a hint, then EOF.
    TestClient second(server.port());
    ASSERT_TRUE(second.connected());
    ASSERT_TRUE(second.ReadLine(&response));
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
    const JsonValue* error = parsed->Find("error");
    ASSERT_NE(error, nullptr) << response;
    EXPECT_EQ(error->Find("code")->AsString(), "Unavailable");
    ASSERT_NE(error->Find("retry_after_ms"), nullptr) << response;
    EXPECT_TRUE(second.AtEof());
    EXPECT_GE(service.Snapshot().connections_rejected, 1u);
  }

  // The occupant closed; once its worker notices, capacity frees up.
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    TestClient retry(server.port());
    std::string response;
    if (retry.connected() && retry.SendLine(R"({"op":"ping","id":2})") &&
        retry.ReadLine(&response)) {
      auto parsed = JsonValue::Parse(response);
      served = parsed.ok() && parsed->Find("ok")->AsBool();
    }
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served);
  server.Stop();
}

TEST_F(TcpServerTest, StalledRequestLineHitsDeadlineWithTypedReply) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options;
  options.deadline_ms = 100;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Start a request line but never finish it: the budget starts with the
  // first bytes and expires waiting for the rest.
  ASSERT_TRUE(client.SendRaw("{\"op\":\"ping\""));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
            "DeadlineExceeded");
  EXPECT_TRUE(client.AtEof());
  EXPECT_GE(service.Snapshot().deadline_exceeded, 1u);

  // An idle connection never times out, and a prompt request is
  // unaffected by the budget.
  TestClient quick(server.port());
  ASSERT_TRUE(quick.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // idle > budget
  ASSERT_TRUE(quick.SendLine(R"({"op":"ping","id":9})"));
  ASSERT_TRUE(quick.ReadLine(&response));
  EXPECT_EQ(response, R"({"id":9,"ok":true,"op":"ping"})");
  server.Stop();
}

TEST_F(TcpServerTest, StopWithOpenConnectionsDrainsGracefully) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  // Give the accept loop a moment to register the connection.
  ASSERT_TRUE(idle.SendLine(R"({"op":"ping"})"));
  std::string response;
  ASSERT_TRUE(idle.ReadLine(&response));
  server.Stop();  // must not hang on the idle connection
  EXPECT_TRUE(idle.AtEof());
  // Stop is idempotent.
  server.Stop();
}

}  // namespace
}  // namespace leapme::serve
