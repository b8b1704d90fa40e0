// Coordinated-omission stall tests: when the server (or the fire
// callback) stalls, the intended-start clock must absorb the backlog
// the schedule kept offering, while the send-start clock — the one a
// closed-loop harness reports — stays blind to it. These are the tests
// that justify carrying two histograms through the open-loop runner.

#include <chrono>
#include <memory>
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
#include "serve/matcher_service.h"
#include "serve/tcp_server.h"
#include "tools/line_client.h"
#include "workload/arrival.h"
#include "workload/open_loop.h"

namespace leapme::workload {
namespace {

// A stalled fire callback, no server involved: 3 events block for 450ms
// each while the metronome keeps scheduling arrivals. The ~270 events
// that pile up behind the 1.35s stall fire late, so their intended-clock
// latency carries the backlog even though each call itself is instant.
TEST(OpenLoopRunnerTest, StalledFireInflatesTheIntendedClock) {
  auto schedule = ArrivalSchedule::Build(
      {.target_rps = 200.0, .duration_s = 2.0, .poisson = false});
  ASSERT_TRUE(schedule.ok());
  OpenLoopResult result;
  RunOpenLoop(
      *schedule, 1,
      [](size_t event) {
        if (event < 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(450));
        }
        return Outcome::kOk;
      },
      &result);
  EXPECT_EQ(result.sent, schedule->size());
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_GT(result.late_starts, 50u);

  const LatencyRecorder::Summary intended = result.intended.Snapshot();
  const LatencyRecorder::Summary service = result.service.Snapshot();
  // The stalls total 1.35s, so ~2/3 of the 400 intended arrivals queue
  // up behind them and fire late. On the send-start clock 99% of events
  // are no-ops (3 of 400 stalled is under the p99 rank), so the
  // closed-loop view stays flat — that asymmetry is coordinated
  // omission.
  EXPECT_GT(intended.p99_us, 300000.0);
  EXPECT_GT(intended.p50_us, 100000.0);
  EXPECT_GT(intended.p99_us, 10.0 * service.p99_us);
}

TEST(OpenLoopRunnerTest, OutcomesAreTalliedPerClass) {
  auto schedule = ArrivalSchedule::Build(
      {.target_rps = 1000.0, .duration_s = 0.01, .poisson = false});
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->size(), 10u);
  OpenLoopResult result;
  RunOpenLoop(
      *schedule, 2,
      [](size_t event) {
        switch (event % 5) {
          case 0: return Outcome::kOk;
          case 1: return Outcome::kDegraded;
          case 2: return Outcome::kShed;
          case 3: return Outcome::kDeadline;
          default: return Outcome::kError;
        }
      },
      &result);
  EXPECT_EQ(result.sent, 10u);
  EXPECT_EQ(result.ok, 2u);
  EXPECT_EQ(result.degraded, 2u);
  EXPECT_EQ(result.shed, 2u);
  EXPECT_EQ(result.deadline, 2u);
  EXPECT_EQ(result.errors, 2u);
  // Every outcome still lands in both histograms: shed and errored
  // arrivals are part of the traffic the server was offered.
  EXPECT_EQ(result.intended.count(), 10u);
  EXPECT_EQ(result.service.count(), 10u);
}

// ---------------------------------------------------------------------
// The same property through the real serve stack, with the stall coming
// from an injected LEAPME_FAULTS-style read delay.

class SoakStallTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions generator;
    generator.num_sources = 3;
    generator.min_entities_per_source = 6;
    generator.max_entities_per_source = 6;
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
    cached_model_ = new embedding::CachingEmbeddingModel(base_model_, 4096);
    Rng rng(73);
    std::vector<data::SourceId> sources{0, 1};
    auto training =
        data::BuildTrainingPairs(*dataset_, sources, 2.0, rng).value();
    matcher_ = new core::LeapmeMatcher(cached_model_);
    ASSERT_TRUE(matcher_->Fit(*dataset_, training).ok());
  }

  void TearDown() override { faults::FaultInjector::Global().Disarm(); }

  static std::string ScoreLine(size_t event) {
    const auto pairs = dataset_->AllCrossSourcePairs();
    std::string line = "{\"op\":\"score\",\"id\":" + std::to_string(event) +
                       ",\"pairs\":[";
    for (size_t i = 0; i < 2; ++i) {
      const auto& pair = pairs[(event * 2 + i) % pairs.size()];
      if (i > 0) line += ',';
      for (const data::PropertyId id : {pair.a, pair.b}) {
        line += (id == pair.a) ? "{\"a\":" : ",\"b\":";
        line += "{\"name\":";
        serve::AppendJsonString(&line, dataset_->property(id).name);
        line += ",\"values\":[";
        const auto& instances = dataset_->instances(id);
        for (size_t v = 0; v < instances.size(); ++v) {
          if (v > 0) line += ',';
          serve::AppendJsonString(&line, instances[v].value);
        }
        line += "]}";
      }
      line += "}";
    }
    line += "]}";
    return line;
  }

  static data::Dataset* dataset_;
  static embedding::SyntheticEmbeddingModel* base_model_;
  static embedding::CachingEmbeddingModel* cached_model_;
  static core::LeapmeMatcher* matcher_;
};

data::Dataset* SoakStallTest::dataset_ = nullptr;
embedding::SyntheticEmbeddingModel* SoakStallTest::base_model_ = nullptr;
embedding::CachingEmbeddingModel* SoakStallTest::cached_model_ = nullptr;
core::LeapmeMatcher* SoakStallTest::matcher_ = nullptr;

TEST_F(SoakStallTest, InjectedReadDelayInflatesTheIntendedP99) {
  auto registry =
      serve::ModelRegistry::WrapExisting(matcher_, cached_model_).value();
  serve::MatcherService service(registry.get());
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.deadline_ms = 10000;  // never the thing that fires here
  serve::TcpServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // Three 250ms read stalls early in the run: 750ms of backlog against
  // a 1.5s schedule. p=1 + n=3 makes the stall deterministic.
  ASSERT_TRUE(faults::FaultInjector::Global()
                  .Arm("seed=5;serve.read:delay:p=1:ms=250:n=3")
                  .ok());

  auto schedule = ArrivalSchedule::Build(
      {.target_rps = 60.0, .duration_s = 1.5, .poisson = true, .seed = 74});
  ASSERT_TRUE(schedule.ok());
  OpenLoopResult result;
  RunOpenLoop(
      *schedule, 1,
      [&](size_t event) {
        thread_local std::unique_ptr<tools::LineClient> client;
        if (client == nullptr || !client->connected()) {
          client = std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        if (!client->connected()) return Outcome::kError;
        std::string response;
        if (!client->RoundTrip(ScoreLine(event), &response)) {
          client.reset();
          return Outcome::kError;
        }
        return response.find("\"ok\":true") != std::string::npos
                   ? Outcome::kOk
                   : Outcome::kError;
      },
      &result);
  faults::FaultInjector::Global().Disarm();
  server.Stop();

  EXPECT_EQ(result.sent, schedule->size());
  EXPECT_EQ(result.ok + result.degraded + result.shed + result.deadline +
                result.errors,
            result.sent);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(faults::FaultInjector::Global().injected(), 0u);

  const LatencyRecorder::Summary intended = result.intended.Snapshot();
  const LatencyRecorder::Summary service_clock = result.service.Snapshot();
  // The acceptance property for the whole subsystem: the injected stall
  // must show up in the intended-clock tail. 750ms of stall against
  // ~17ms mean gaps late-fires tens of requests, so the intended p99
  // sits above 100ms regardless of how fast the host is — a slower host
  // only deepens the backlog. No upper-bound assert on the service
  // clock: the three stalled requests themselves may straddle its p99.
  EXPECT_GT(intended.p99_us, 100000.0);
  EXPECT_GE(intended.p50_us, service_clock.p50_us);
  EXPECT_GT(result.late_starts, 10u);
}

}  // namespace
}  // namespace leapme::workload
