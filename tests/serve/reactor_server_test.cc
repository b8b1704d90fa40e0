// Reactor-backend tests: line framing across arbitrary read() boundaries,
// pipelined response ordering, idle keep-alive surviving the request
// deadline, slow-reader writable backpressure (with the
// writable_backlog_bytes gauge), read backpressure against a peer that
// pipelines without reading, the deadline of a request still at the
// service, reactor stats fields, replies sent without waiting for the
// client's ACK (TCP_NODELAY), and a 10k-idle-connection smoke —
// parameterized over 1 and 4 event-loop threads so both the single-loop
// and the cross-loop paths are covered.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/faults/fault_injector.h"
#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "serve/json.h"
#include "serve/tcp_server.h"
#include "tools/line_client.h"

namespace leapme::serve {
namespace {

/// Minimal blocking line client (same shape as tcp_server_test.cc), with
/// an optional tiny receive buffer to make the server's write side back
/// up deterministically.
class TestClient {
 public:
  explicit TestClient(int port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcvbuf_bytes > 0) {
      // Must be set before connect to shrink the advertised window.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
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
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  /// Sends `bytes` until the socket takes no more for `stall_ms`; returns
  /// how many were sent.
  size_t SendUntilBlocked(std::string_view bytes, int stall_ms) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      pollfd pfd = {fd_, POLLOUT, 0};
      if (::poll(&pfd, 1, stall_ms) <= 0) break;
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        break;
      }
      sent += static_cast<size_t>(n);
    }
    return sent;
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

int64_t IdOf(const std::string& response) {
  auto parsed = JsonValue::Parse(response);
  if (!parsed.ok()) return -1;
  const JsonValue* id = parsed->Find("id");
  return id != nullptr ? static_cast<int64_t>(id->AsNumber()) : -1;
}

class ReactorServerTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 4;
    generator.min_entities_per_source = 8;
    generator.max_entities_per_source = 8;
    generator.seed = 101;
    dataset_ = new data::Dataset(
        data::GenerateCatalog(data::TvDomain(), generator).value());
    base_model_ = new embedding::SyntheticEmbeddingModel(
        embedding::SyntheticEmbeddingModel::Build(
            data::DomainClusters(data::TvDomain()),
            {.dimension = 16,
             .seed = 102,
             .oov_policy = embedding::OovPolicy::kHashedVector})
            .value());
    cached_model_ = new embedding::CachingEmbeddingModel(base_model_, 4096);
    Rng rng(103);
    std::vector<data::SourceId> sources{0, 1, 2};
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    core::LeapmeMatcher trained(base_model_);
    ASSERT_TRUE(trained.Fit(*dataset_, training).ok());
    const std::string path = ::testing::TempDir() + "/reactor." +
                             std::to_string(::getpid()) + ".model";
    ASSERT_TRUE(trained.SaveModel(path).ok());
    matcher_ = new core::LeapmeMatcher(
        core::LeapmeMatcher::LoadModel(cached_model_, path).value());
  }

  static ServerOptions ReactorOptions() {
    ServerOptions options;
    options.event_loop_threads = GetParam();
    return options;
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* matcher_;
};

data::Dataset* ReactorServerTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* ReactorServerTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* ReactorServerTest::cached_model_ = nullptr;
core::LeapmeMatcher* ReactorServerTest::matcher_ = nullptr;

TEST_P(ReactorServerTest, FramesLinesAcrossArbitraryReadBoundaries) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Partial: the request trickles in one byte at a time, with pauses, so
  // the loop sees many reads that each hold an incomplete line.
  const std::string request = "{\"op\":\"ping\",\"id\":7}\n";
  for (const char byte : request) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 7);

  // Coalesced: three complete requests (one with a CRLF ending) arrive
  // in a single write; each must be answered exactly once, in order.
  ASSERT_TRUE(client.SendRaw(
      "{\"op\":\"ping\",\"id\":8}\n{\"op\":\"ping\",\"id\":9}\r\n"
      "{\"op\":\"ping\",\"id\":10}\n"));
  for (int64_t expected = 8; expected <= 10; ++expected) {
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(IdOf(response), expected);
  }

  // Split across the line boundary: the tail of one request and the head
  // of the next share a segment.
  ASSERT_TRUE(client.SendRaw("{\"op\":\"ping\",\"id\":11}\n{\"op\":\"pi"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 11);
  ASSERT_TRUE(client.SendRaw("ng\",\"id\":12}\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 12);

  server.Stop();
}

TEST_P(ReactorServerTest, PipelinedRequestsAnswerInOrder) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 64;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(client.SendRaw(burst));
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(IdOf(response), i) << response;
  }
  server.Stop();
}

TEST_P(ReactorServerTest, IdleKeepAliveOutlivesRequestDeadline) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options = ReactorOptions();
  options.deadline_ms = 150;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\",\"id\":1}"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);

  // The deadline is per request, not per connection: once the answer is
  // flushed and nothing further has arrived, no clock ticks. Idling far
  // past deadline_ms must not surface a DeadlineExceeded or a close —
  // the next request on the same connection still round-trips.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\",\"id\":2}"));
  ASSERT_TRUE(client.ReadLine(&response))
      << "idle keep-alive connection was closed by the request deadline";
  EXPECT_EQ(IdOf(response), 2);
  server.Stop();
}

TEST_P(ReactorServerTest, SlowReaderBacklogsThenDrains) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options = ReactorOptions();
  // Tiny buffers on both sides so a non-reading client jams the socket
  // after a few KB and the rest backs up in the per-connection output
  // queue (the kernel clamps to minimums, so send enough to exceed them).
  options.sndbuf_bytes = 4096;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 2000;
  TestClient slow(server.port(), /*rcvbuf_bytes=*/2048);
  ASSERT_TRUE(slow.connected());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(slow.SendRaw(burst));

  // Wait until the responses have outrun the stalled socket, then check
  // the gauge through a second connection.
  uint64_t backlog = 0;
  for (int attempt = 0; attempt < 100 && backlog == 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    TestClient prober(server.port());
    ASSERT_TRUE(prober.connected());
    ASSERT_TRUE(prober.SendLine("{\"op\":\"stats\",\"id\":1}"));
    std::string stats_line;
    ASSERT_TRUE(prober.ReadLine(&stats_line));
    auto parsed = JsonValue::Parse(stats_line);
    ASSERT_TRUE(parsed.ok()) << stats_line;
    backlog = static_cast<uint64_t>(
        parsed->Find("stats")->Find("writable_backlog_bytes")->AsNumber());
  }
  EXPECT_GT(backlog, 0u)
      << "server never reported buffered response bytes for the stalled "
         "reader";

  // The stalled connection was never dropped (no deadline configured):
  // once the client starts reading, every response arrives, in order.
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(slow.ReadLine(&response)) << "response " << i;
    ASSERT_EQ(IdOf(response), i) << response;
  }

  // Fully drained: the gauge falls back to zero.
  TestClient prober(server.port());
  ASSERT_TRUE(prober.connected());
  ASSERT_TRUE(prober.SendLine("{\"op\":\"stats\",\"id\":2}"));
  std::string stats_line;
  ASSERT_TRUE(prober.ReadLine(&stats_line));
  auto parsed = JsonValue::Parse(stats_line);
  ASSERT_TRUE(parsed.ok()) << stats_line;
  EXPECT_EQ(
      parsed->Find("stats")->Find("writable_backlog_bytes")->AsNumber(),
      0.0);
  server.Stop();
}

TEST_P(ReactorServerTest, PipelinedFloodWithoutReadingBlocksThenDrains) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options = ReactorOptions();
  // Small kernel buffers on the reply path, so the replies back up in
  // the server rather than in the kernel.
  options.sndbuf_bytes = 4096;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  // 64 MB of pings, every line padded with JSON whitespace to the same
  // length, so a byte count is a line count.
  constexpr size_t kLineBytes = 64;
  constexpr size_t kFloodBytes = size_t{64} << 20;
  std::string flood;
  flood.reserve(kFloodBytes);
  for (size_t id = 0; flood.size() < kFloodBytes; ++id) {
    std::string line = "{\"op\":\"ping\",\"id\":" + std::to_string(id);
    line.append(kLineBytes - line.size() - 2, ' ');
    flood += line + "}\n";
  }
  TestClient client(server.port(), /*rcvbuf_bytes=*/2048);
  ASSERT_TRUE(client.connected());
  const size_t sent = client.SendUntilBlocked(flood, /*stall_ms=*/1000);
  // Past max_line_bytes of unanswered lines plus unflushed replies the
  // server stops reading, so the flood stalls in the kernel buffers.
  ASSERT_LT(sent, kFloodBytes / 4)
      << "the server kept reading a peer that never reads its replies";

  // Nothing was dropped: every complete line is answered, in order.
  const size_t lines = sent / kLineBytes;
  for (size_t i = 0; i < lines; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    ASSERT_EQ(IdOf(response), static_cast<int64_t>(i)) << response;
  }
  server.Stop();
}

TEST_P(ReactorServerTest, InFlightRequestHitsDeadlineWithTypedReply) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  ServerOptions options = ReactorOptions();
  options.deadline_ms = 20;
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  struct Disarm {
    ~Disarm() { faults::FaultInjector::Global().Disarm(); }
  } disarm;
  // Scoring stalls far past the budget: the loop must answer while the
  // request is still at the service.
  ASSERT_TRUE(
      faults::FaultInjector::Global().Arm("serve.score:delay:ms=200").ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendLine(
      R"({"op":"score","id":1,"pairs":[{"a":{"name":"screen size",)"
      R"("values":["55 in"]},"b":{"name":"display","values":["55"]}}]})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed->Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
            "DeadlineExceeded");
  EXPECT_LT(elapsed_ms, 150.0);

  // Once the batcher has finished the late batch (its completion records
  // the latency sample), the request has counted once in each counter.
  const auto stat = [&](const char* name) {
    TestClient prober(server.port());
    std::string line;
    EXPECT_TRUE(prober.SendLine("{\"op\":\"stats\"}"));
    EXPECT_TRUE(prober.ReadLine(&line));
    auto stats = JsonValue::Parse(line);
    return stats.ok() ? stats->Find("stats")->Find(name)->AsNumber() : -1.0;
  };
  for (int attempt = 0; attempt < 300 && (stat("latency_samples") < 1.0 ||
                                          stat("request_errors") < 1.0);
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(stat("deadline_exceeded"), 1.0);
  EXPECT_EQ(stat("request_errors"), 1.0);
  server.Stop();
}

TEST_P(ReactorServerTest, StatsReportReactorIdentityAndGauges) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"stats\",\"id\":1}"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  const JsonValue* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("io_backend")->AsString(), "epoll");
  EXPECT_EQ(stats->Find("event_loop_threads")->AsNumber(),
            static_cast<double>(GetParam()));
  // Serving this very request woke a loop at least twice (accept + read).
  EXPECT_GE(stats->Find("epoll_wakeups")->AsNumber(), 2.0);
  server.Stop();
}

TEST_P(ReactorServerTest, PipelinedReplyDoesNotWaitForDelayedAck) {
  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  MatcherService service(registry.get());
  TcpServer server(&service, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Request/reply round trips end the kernel's quick-ACK start-up phase:
  // from here on the client delays the ACK of a reply, hoping to carry
  // it on its next request.
  std::string response;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.SendLine("{\"op\":\"ping\",\"id\":" +
                                std::to_string(i) + "}"));
    ASSERT_TRUE(client.ReadLine(&response));
  }

  // Two pipelined pings, then silence. The second reply is written while
  // the first is still unacknowledged; with Nagle on, the server would
  // hold it until the client's delayed-ACK timer fires (>= 40 ms on
  // Linux). TCP_NODELAY sends it at once.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendRaw(
      "{\"op\":\"ping\",\"id\":100}\n{\"op\":\"ping\",\"id\":101}\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 100);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 101);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 20.0)
      << "the second pipelined reply waited for the client's ACK";
  server.Stop();
}

TEST_P(ReactorServerTest, TenThousandIdleConnectionsStayResponsive) {
  constexpr size_t kFleet = 10000;
  // The client half of the fleet lives in a forked child process
  // (ForkedIdleFleet), so this process only needs the server-side fds
  // plus the suite's own overhead. Containers without CAP_SYS_RESOURCE
  // cap RLIMIT_NOFILE at a hard ceiling; splitting halves the budget
  // each side needs.
  const size_t need = kFleet + 2048;
  const size_t available = tools::RaiseFdLimit(need);
  if (available < need) {
    GTEST_SKIP() << "RLIMIT_NOFILE only allows " << available
                 << " fds; need " << need
                 << " for the server side of the 10k idle fleet";
  }

  auto registry = ModelRegistry::WrapExisting(matcher_, cached_model_).value();

  MatcherService service(registry.get());
  ServerOptions options = ReactorOptions();
  options.backlog = 4096;  // waves arrive faster than single accepts
  TcpServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  const auto connect_start = std::chrono::steady_clock::now();
  tools::ForkedIdleFleet fleet("127.0.0.1", server.port(), kFleet,
                               /*timeout_ms=*/15000);
  const double connect_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    connect_start)
          .count();
  ASSERT_EQ(fleet.connected(), kFleet)
      << "only " << fleet.connected() << " of " << kFleet
      << " connections established after " << connect_s << "s";

  // The fleet is pure idle keep-alive load; a fresh connection must
  // still get served promptly underneath it.
  TestClient active(server.port());
  ASSERT_TRUE(active.connected());
  ASSERT_TRUE(active.SendLine("{\"op\":\"stats\",\"id\":1}"));
  std::string response;
  ASSERT_TRUE(active.ReadLine(&response));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_GE(parsed->Find("stats")->Find("connections_active")->AsNumber(),
            static_cast<double>(kFleet));

  // Connections accepted in the same waves as the fleet still serve
  // round trips (they are connections, not accepted-and-forgotten
  // sockets).
  auto probes = tools::ConnectFleet("127.0.0.1", server.port(), 4,
                                    /*timeout_ms=*/5000);
  ASSERT_EQ(probes.size(), 4u);
  for (size_t i = 0; i < probes.size(); ++i) {
    std::string probe_response;
    ASSERT_TRUE(probes[i]->RoundTrip("{\"op\":\"ping\",\"id\":2}",
                                     &probe_response))
        << "probe connection " << i;
    EXPECT_EQ(IdOf(probe_response), 2);
  }

  // Stopping underneath the live fleet exercises mass drain: idle
  // connections are closed immediately, not after the grace period.
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Loops, ReactorServerTest,
                         ::testing::Values<size_t>(1, 4),
                         [](const auto& info) {
                           return "EventLoops" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace leapme::serve
