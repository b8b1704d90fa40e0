// Tests for the benchmark's own machinery: the open-loop generator's lag
// against a trivial echo server, the reply checks and the exit code they
// set, the self-time arithmetic, and the result line.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "checks.h"
#include "gtest/gtest.h"
#include "loadgen.h"
#include "metrics.h"
#include "serve/protocol.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Echoes every byte back on each accepted connection, one thread per
/// connection, until destroyed.
class EchoServer {
 public:
  EchoServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address = {};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address));
    ::listen(listen_fd_, 16);
    socklen_t length = sizeof(address);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
    acceptor_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0 || stop_) {
          if (fd >= 0) ::close(fd);
          return;
        }
        fds_.push_back(fd);
        echoes_.emplace_back([fd] {
          char buffer[4096];
          while (true) {
            const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
            if (n <= 0) return;
            if (::send(fd, buffer, static_cast<size_t>(n), MSG_NOSIGNAL) !=
                n) {
              return;
            }
          }
        });
      }
    });
  }

  ~EchoServer() {
    stop_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& echo : echoes_) echo.join();
    for (int fd : fds_) ::close(fd);
  }

  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<int> fds_;
  std::vector<std::thread> echoes_;
  std::thread acceptor_;
};

TEST(LoadGen, OpenLoopScheduleStaysWithinLagBound) {
  EchoServer echo;
  std::vector<std::string> lines;
  std::vector<uint64_t> intended;
  // 2000 requests/s for one second, evenly spaced.
  for (size_t i = 0; i < 2000; ++i) {
    lines.push_back("request " + std::to_string(i) + "\n");
    intended.push_back(i * 500'000ULL);
  }
  LoadTarget target;
  target.port = echo.port();
  target.connections = 2;
  const LoadResult result = RunOpenLoop(target, lines, intended);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.records.size(), lines.size());
  for (size_t i = 0; i < result.records.size(); ++i) {
    ASSERT_TRUE(result.records[i].replied);
    EXPECT_EQ(result.replies[i] + "\n", lines[result.records[i].line]);
    EXPECT_GE(result.records[i].sent_ns, result.records[i].intended_ns);
    EXPECT_GE(result.records[i].done_ns, result.records[i].sent_ns);
  }
  const LagSummary lag = SummarizeLag(result.records);
  EXPECT_LE(lag.late_frac, 0.01);
  // The schedule finished on time: the last send is due at 999.5 ms.
  EXPECT_LT(static_cast<double>(result.elapsed_ns) / 1e6, 1100.0);
}

TEST(Checks, ScoreCheckerRejectsOneUlp) {
  const std::vector<double> expected = {0.125, 0.7321, 1e-9};
  std::vector<double> parsed;
  EXPECT_EQ(CheckScoreReply(leapme::serve::ScoreResponse(7, expected),
                            expected, &parsed),
            "");
  EXPECT_EQ(parsed, expected);
  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<double> corrupted = expected;
    corrupted[i] = std::nextafter(corrupted[i], 2.0);
    EXPECT_NE(CheckScoreReply(leapme::serve::ScoreResponse(7, corrupted),
                              expected, &parsed),
              "")
        << "one-ulp change of score " << i << " passed";
  }
  EXPECT_NE(CheckScoreReply(leapme::serve::ScoreResponse(7, {0.125, 0.7321}),
                            expected, &parsed),
            "");
  EXPECT_NE(CheckScoreReply("{\"ok\":true,\"scores\":[0.125,null,1e-9]}",
                            expected, &parsed),
            "");
}

/// A one-request score phase whose reply carries `served`.
LoadResult OneReplyPhase(const std::vector<double>& served) {
  LoadResult load;
  RequestRecord record;
  record.replied = true;
  load.records.push_back(record);
  load.replies.push_back(leapme::serve::ScoreResponse(0, served));
  return load;
}

TEST(Checks, OneUlpScoreFailsTheRun) {
  const std::vector<std::vector<double>> expected = {{0.125, 0.7321, 1e-9}};
  std::vector<double> corrupted = expected[0];
  corrupted[1] = std::nextafter(corrupted[1], 2.0);
  for (const bool corrupt : {false, true}) {
    const LoadResult load = OneReplyPhase(corrupt ? corrupted : expected[0]);
    const std::vector<Outcome> outcomes = {ClassifyReply(load.replies[0])};
    Verdict verdict;
    verdict.attempted = 1;
    const auto scores = CheckScorePhase(load, outcomes, expected, &verdict);
    testing::internal::CaptureStdout();
    const int code = Finish(verdict, {{"p50_ms", 1.0, "ms"}});
    const std::string out = testing::internal::GetCapturedStdout();
    if (corrupt) {
      EXPECT_EQ(code, 1);
      EXPECT_TRUE(scores[0].empty());
      EXPECT_NE(out.find("CHECK FAILED: score 0: score 1 is"),
                std::string::npos)
          << out;
      EXPECT_NE(out.find("{\"correct\":false,"), std::string::npos) << out;
    } else {
      EXPECT_EQ(code, 0);
      EXPECT_EQ(scores[0], expected[0]);
      EXPECT_EQ(out.find("CHECK FAILED"), std::string::npos) << out;
      EXPECT_NE(out.find("{\"correct\":true,"), std::string::npos) << out;
    }
  }
}

TEST(Checks, MalformedReplyFailsTheRun) {
  LoadResult load = OneReplyPhase({0.5});
  load.replies[0] = "{\"ok\":tru";
  Verdict verdict;
  CheckScorePhase(load, {ClassifyReply(load.replies[0])}, {{0.5}}, &verdict);
  EXPECT_FALSE(verdict.correct);
  testing::internal::CaptureStdout();
  EXPECT_EQ(Finish(verdict, {}), 1);
  testing::internal::GetCapturedStdout();
}

TEST(Checks, ClassifiesOutcomes) {
  EXPECT_EQ(ClassifyReply("{\"ok\":true,\"op\":\"score\",\"scores\":[]}"),
            Outcome::kOk);
  EXPECT_EQ(ClassifyReply("{\"ok\":false,\"error\":{\"code\":"
                          "\"ResourceExhausted\",\"message\":\"x\"}}"),
            Outcome::kShed);
  EXPECT_EQ(ClassifyReply("{\"ok\":false,\"error\":{\"code\":"
                          "\"DeadlineExceeded\",\"message\":\"x\"}}"),
            Outcome::kDeadline);
  EXPECT_EQ(ClassifyReply("{\"ok\":false,\"error\":{\"code\":"
                          "\"InvalidArgument\",\"message\":\"x\"}}"),
            Outcome::kError);
  EXPECT_EQ(ClassifyReply(""), Outcome::kNoReply);
  EXPECT_EQ(ClassifyReply("{\"ok\":tru"), Outcome::kMalformed);
}

TEST(Trace, SelfTimeOnSyntheticTree) {
  // root [0,100] with children a [10,30], b [20,50] (overlapping a) and
  // c [90,120] (running past the root); a has a grandchild [12,18].
  std::vector<Span> spans = {
      {0, kNoParent, 1, 0, 100},  // 0 root
      {1, 0, 1, 10, 30},          // 1 a
      {1, 0, 1, 20, 50},          // 2 b
      {1, 0, 1, 90, 120},         // 3 c
      {2, 1, 1, 12, 18},          // 4 grandchild of the root
      {0, kNoParent, 2, 200, 260},  // 5 a second request, no children
  };
  const std::vector<uint64_t> covered = ChildCoveredNs(spans);
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  // Children cover [10,50] and [90,100] of the root.
  EXPECT_EQ(covered[0], 50u);
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 14u);  // 20 minus the grandchild's 6
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
  EXPECT_EQ(self[5], 60u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    ScopedSpan span(tracer, tracer.Intern("x"), kNoParent, 1);
    EXPECT_EQ(span.CloseUs(), 0.0);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Metrics, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(Metrics, ResultLineHasTheContractKeys) {
  EXPECT_EQ(ResultJson(true, 10, 1, {{"p50_ms", 1.25, "ms"}}),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":"
            "{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
