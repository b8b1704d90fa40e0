// Serving benchmark: throughput and latency of the online scoring path,
// in-process (MatcherService::Score, isolating the micro-batcher), over
// a loopback TCP connection (the full wire path), and as a third phase
// the same TCP load offered open-loop at a fixed rate, reporting latency
// against both the send-start and the intended-start clock so the
// coordinated-omission gap of the closed-loop phases is visible
// (DESIGN.md §15). Prints one JSON object so runs are easy to diff and
// plot.
//
// Environment knobs: LEAPME_SCALE (test | bench | paper).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/latency_recorder.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "serve/json.h"
#include "serve/tcp_server.h"
#include "tools/line_client.h"
#include "workload/arrival.h"
#include "workload/open_loop.h"
#include "workload/traffic.h"

namespace {

using namespace leapme;

struct LoadShape {
  size_t sources;
  size_t entities;
  size_t clients;
  size_t requests_per_client;
  size_t pairs_per_request;
  double open_loop_duration_s;
  /// Idle keep-alive connections held open during the phase-4 run. The
  /// reactor's per-connection cost is just epoll registration + a small
  /// state struct, so a 10k fleet should leave the intended-clock p99
  /// flat relative to phase 3.
  size_t idle_fleet;
};

LoadShape ShapeFor(eval::EvalScale scale) {
  switch (scale) {
    case eval::EvalScale::kTest:
      return {3, 6, 2, 5, 4, 0.5, 64};
    case eval::EvalScale::kPaper:
      return {6, 12, 8, 200, 32, 8.0, 10000};
    default:
      return {4, 10, 8, 40, 16, 3.0, 10000};
  }
}

struct LoadResult {
  double elapsed_s = 0.0;
  LatencyRecorder::Summary latency;
  uint64_t requests = 0;
  uint64_t pairs = 0;
};

/// Runs `clients` threads of `body(client_index, recorder)` recording
/// each request's latency into the shared (thread-safe) recorder.
template <typename Body>
LoadResult RunLoad(const LoadShape& shape, const Body& body) {
  LatencyRecorder recorder;
  std::vector<std::thread> threads;
  const auto begin = std::chrono::steady_clock::now();
  for (size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] { body(c, recorder); });
  }
  for (std::thread& thread : threads) thread.join();
  LoadResult result;
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.latency = recorder.Snapshot();
  result.requests = result.latency.count;
  result.pairs = result.requests * shape.pairs_per_request;
  return result;
}

void AppendSummary(std::string* out,
                   const LatencyRecorder::Summary& summary) {
  *out += "\"latency_p50_us\":" + serve::FormatJsonDouble(summary.p50_us) +
          ",\"latency_p95_us\":" + serve::FormatJsonDouble(summary.p95_us) +
          ",\"latency_p99_us\":" + serve::FormatJsonDouble(summary.p99_us) +
          ",\"latency_p999_us\":" +
          serve::FormatJsonDouble(summary.p999_us);
}

void AppendLoadResult(std::string* out, const char* key,
                      const LoadResult& result) {
  *out += std::string("\"") + key + "\":{\"requests\":" +
          std::to_string(result.requests) +
          ",\"pairs\":" + std::to_string(result.pairs) + ",\"elapsed_s\":" +
          serve::FormatJsonDouble(result.elapsed_s) + ",\"pairs_per_sec\":" +
          serve::FormatJsonDouble(
              result.elapsed_s > 0.0
                  ? static_cast<double>(result.pairs) / result.elapsed_s
                  : 0.0) +
          ",";
  AppendSummary(out, result.latency);
  *out += "}";
}

serve::PropertySpec SpecOf(const data::Dataset& dataset,
                           data::PropertyId id) {
  serve::PropertySpec spec;
  spec.name = dataset.property(id).name;
  for (const auto& instance : dataset.instances(id)) {
    spec.values.push_back(instance.value);
  }
  return spec;
}

std::string SpecJson(const serve::PropertySpec& spec) {
  std::string out = "{\"name\":";
  serve::AppendJsonString(&out, spec.name);
  out += ",\"values\":[";
  for (size_t i = 0; i < spec.values.size(); ++i) {
    if (i > 0) out += ',';
    serve::AppendJsonString(&out, spec.values[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

int main() {
  LoadShape shape = ShapeFor(bench::ScaleFromEnv());
  // Concurrency override for before/after comparisons at a pinned client
  // count (e.g. the 64-client cache-contention runs), independent of the
  // LEAPME_SCALE shape.
  if (const char* clients_env = std::getenv("LEAPME_SERVE_CLIENTS");
      clients_env != nullptr && *clients_env != '\0') {
    const long parsed = std::strtol(clients_env, nullptr, 10);
    if (parsed > 0 && parsed <= 4096) {
      shape.clients = static_cast<size_t>(parsed);
    }
  }

  data::GeneratorOptions generator;
  generator.num_sources = shape.sources;
  generator.min_entities_per_source = shape.entities;
  generator.max_entities_per_source = shape.entities;
  generator.seed = 91;
  auto dataset = data::GenerateCatalog(data::TvDomain(), generator);
  bench::CheckOk(dataset.status(), "GenerateCatalog");

  auto base_model = embedding::SyntheticEmbeddingModel::Build(
      data::DomainClusters(data::TvDomain()),
      {.dimension = 32,
       .seed = 92,
       .oov_policy = embedding::OovPolicy::kHashedVector});
  bench::CheckOk(base_model.status(), "SyntheticEmbeddingModel::Build");
  embedding::CachingEmbeddingModel cached(&base_model.value(), 1 << 16);

  Rng rng(93);
  data::SourceSplit split = data::SplitSources(*dataset, 0.8, rng);
  auto training =
      data::BuildTrainingPairs(*dataset, split.train_sources, 2.0, rng);
  bench::CheckOk(training.status(), "BuildTrainingPairs");
  core::LeapmeMatcher matcher(&cached);
  bench::CheckOk(matcher.Fit(*dataset, *training), "Fit");

  auto registry = serve::ModelRegistry::WrapExisting(&matcher, &cached);
  bench::CheckOk(registry.status(), "ModelRegistry::WrapExisting");
  serve::MatcherService service(registry->get());

  // Request corpus: windows over all cross-source pairs, as specs (for
  // the in-process phase) and as pre-rendered JSON lines (for TCP).
  const std::vector<data::PropertyPair> pairs =
      dataset->AllCrossSourcePairs();
  std::vector<serve::PropertySpec> specs;
  specs.reserve(dataset->property_count());
  for (data::PropertyId id = 0; id < dataset->property_count(); ++id) {
    specs.push_back(SpecOf(*dataset, id));
  }
  auto request_pairs = [&](size_t client, size_t request) {
    std::vector<serve::PropertyPairSpec> window(shape.pairs_per_request);
    const size_t start =
        (client * 131 + request * shape.pairs_per_request) % pairs.size();
    for (size_t i = 0; i < window.size(); ++i) {
      const auto& pair = pairs[(start + i) % pairs.size()];
      window[i] = {specs[pair.a], specs[pair.b]};
    }
    return window;
  };
  auto request_line = [&](size_t client, size_t request) {
    const auto window = request_pairs(client, request);
    std::string line = "{\"op\":\"score\",\"pairs\":[";
    for (size_t i = 0; i < window.size(); ++i) {
      if (i > 0) line += ',';
      line += "{\"a\":" + SpecJson(window[i].a) +
              ",\"b\":" + SpecJson(window[i].b) + "}";
    }
    line += "]}";
    return line;
  };

  // Phase 1: straight into the micro-batcher, no sockets.
  LoadResult in_process = RunLoad(
      shape, [&](size_t client, LatencyRecorder& recorder) {
        for (size_t request = 0; request < shape.requests_per_client;
             ++request) {
          const auto window = request_pairs(client, request);
          const auto begin = std::chrono::steady_clock::now();
          auto scores = service.Score(window);
          bench::CheckOk(scores.status(), "MatcherService::Score");
          recorder.RecordNanos(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - begin)
                  .count()));
        }
      });

  // Phase 2: the same load through the TCP front end on loopback. The
  // deep backlog is for phase 4, whose connect waves arrive faster than
  // single accepts.
  serve::TcpServer server(&service, {.port = 0, .backlog = 4096});
  bench::CheckOk(server.Start(), "TcpServer::Start");
  if (!tools::WaitForServerReady("127.0.0.1", server.port())) {
    std::fprintf(stderr, "server never reported ready\n");
    std::exit(1);
  }
  LoadResult tcp = RunLoad(
      shape, [&](size_t client, LatencyRecorder& recorder) {
        tools::LineClient connection("127.0.0.1", server.port());
        if (!connection.connected()) {
          std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n",
                       server.port());
          std::exit(1);
        }
        for (size_t request = 0; request < shape.requests_per_client;
             ++request) {
          const std::string line = request_line(client, request);
          std::string response;
          const auto begin = std::chrono::steady_clock::now();
          if (!connection.RoundTrip(line, &response)) {
            std::fprintf(stderr, "connection lost mid-benchmark\n");
            std::exit(1);
          }
          recorder.RecordNanos(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - begin)
                  .count()));
        }
      });

  // Phase 3: open loop. The offered rate is set from the measured
  // closed-loop throughput (at 75%, so a healthy server keeps up), and
  // latency is recorded against both clocks: `service` matches what the
  // closed-loop phases report, `intended` additionally charges the time
  // requests spent waiting behind a busy server — the difference IS the
  // coordinated omission the closed loop hides.
  double closed_rps =
      tcp.elapsed_s > 0.0
          ? static_cast<double>(tcp.requests) / tcp.elapsed_s
          : 50.0;
  // Pin the open-loop offered rate for before/after comparisons: the
  // default derives it from this run's measured closed-loop throughput,
  // which makes intended-clock percentiles incomparable across builds.
  if (const char* rps_env = std::getenv("LEAPME_SERVE_RPS");
      rps_env != nullptr && *rps_env != '\0') {
    const double parsed = std::strtod(rps_env, nullptr);
    if (parsed > 0.0) closed_rps = parsed;
  }
  workload::ArrivalOptions arrival;
  arrival.target_rps = std::max(20.0, 0.75 * closed_rps);
  arrival.duration_s = shape.open_loop_duration_s;
  arrival.seed = 94;
  auto schedule = workload::ArrivalSchedule::Build(arrival);
  bench::CheckOk(schedule.status(), "ArrivalSchedule::Build");
  workload::OpenLoopResult open_loop;
  const int port = server.port();
  workload::RunOpenLoop(
      *schedule, static_cast<unsigned>(shape.clients),
      [&](size_t event) {
        thread_local std::unique_ptr<tools::LineClient> connection;
        if (connection == nullptr || !connection->connected()) {
          connection =
              std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        if (!connection->connected()) return workload::Outcome::kError;
        std::string response;
        if (!connection->RoundTrip(request_line(event % shape.clients,
                                                event),
                                   &response)) {
          connection.reset();
          return workload::Outcome::kError;
        }
        return response.find("\"ok\":true") != std::string::npos
                   ? workload::Outcome::kOk
                   : workload::Outcome::kError;
      },
      &open_loop);

  // Phase 4: open-loop Zipf traffic near saturation, underneath a large
  // fleet of idle keep-alive connections. The fleet's client half lives
  // in a forked child (ForkedIdleFleet) so it does not share this
  // process's RLIMIT_NOFILE budget with the server-side fds; when even
  // the server half does not fit the limit, the fleet shrinks to what
  // the budget allows and the achieved size is reported.
  size_t fleet_target = shape.idle_fleet;
  {
    const size_t need = shape.idle_fleet + 2048;
    const size_t available = tools::RaiseFdLimit(need);
    if (available < need) {
      fleet_target =
          available > 4096 ? available - 2048 : std::min<size_t>(64, fleet_target);
      std::fprintf(stderr,
                   "idle fleet capped at %zu connections "
                   "(RLIMIT_NOFILE allows %zu fds)\n",
                   fleet_target, available);
    }
  }
  tools::ForkedIdleFleet fleet("127.0.0.1", port, fleet_target,
                               /*timeout_ms=*/30000);

  // Zipf-skewed pair draws: the hot head hammers the serve-side property
  // cache the way web-shaped traffic would.
  auto sampler = workload::RequestSampler::Build(
      {.catalog_size = dataset->property_count(), .zipf_s = 1.0, .seed = 95});
  bench::CheckOk(sampler.status(), "RequestSampler::Build");
  auto zipf_line = [&](size_t event) {
    std::string line = "{\"op\":\"score\",\"pairs\":[";
    for (size_t i = 0; i < shape.pairs_per_request; ++i) {
      const size_t draw = event * shape.pairs_per_request + i;
      if (i > 0) line += ',';
      line += "{\"a\":" + SpecJson(specs[sampler->PropertyAt(draw)]) +
              ",\"b\":" + SpecJson(specs[sampler->PairPropertyAt(draw)]) +
              "}";
    }
    line += "]}";
    return line;
  };

  workload::ArrivalOptions fleet_arrival;
  fleet_arrival.target_rps = std::max(20.0, 0.9 * closed_rps);
  fleet_arrival.duration_s = shape.open_loop_duration_s;
  fleet_arrival.seed = 96;
  auto fleet_schedule = workload::ArrivalSchedule::Build(fleet_arrival);
  bench::CheckOk(fleet_schedule.status(), "ArrivalSchedule::Build");
  workload::OpenLoopResult fleet_loop;
  workload::RunOpenLoop(
      *fleet_schedule, static_cast<unsigned>(shape.clients),
      [&](size_t event) {
        thread_local std::unique_ptr<tools::LineClient> connection;
        if (connection == nullptr || !connection->connected()) {
          connection =
              std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        if (!connection->connected()) return workload::Outcome::kError;
        std::string response;
        if (!connection->RoundTrip(zipf_line(event), &response)) {
          connection.reset();
          return workload::Outcome::kError;
        }
        return response.find("\"ok\":true") != std::string::npos
                   ? workload::Outcome::kOk
                   : workload::Outcome::kError;
      },
      &fleet_loop);

  // Snapshot while the fleet is still connected, so connections_active
  // and the reactor gauges reflect the 10k-idle steady state.
  const serve::ServiceStats stats = service.Snapshot();
  server.Stop();

  const LatencyRecorder::Summary open_intended = open_loop.intended.Snapshot();
  const LatencyRecorder::Summary open_service = open_loop.service.Snapshot();
  const LatencyRecorder::Summary fleet_intended =
      fleet_loop.intended.Snapshot();
  const LatencyRecorder::Summary fleet_service = fleet_loop.service.Snapshot();

  std::string out = "{\"config\":{\"threads\":" +
                    std::to_string(bench::BenchThreads()) +
                    ",\"clients\":" + std::to_string(shape.clients) +
                    ",\"requests_per_client\":" +
                    std::to_string(shape.requests_per_client) +
                    ",\"pairs_per_request\":" +
                    std::to_string(shape.pairs_per_request) +
                    ",\"properties\":" +
                    std::to_string(dataset->property_count()) + "},";
  AppendLoadResult(&out, "in_process", in_process);
  out += ',';
  AppendLoadResult(&out, "tcp", tcp);
  out += ",\"open_loop\":{\"target_rps\":" +
         serve::FormatJsonDouble(arrival.target_rps) +
         ",\"sent\":" + std::to_string(open_loop.sent) +
         ",\"errors\":" + std::to_string(open_loop.errors) +
         ",\"late_starts\":" + std::to_string(open_loop.late_starts) +
         ",\"service\":{";
  AppendSummary(&out, open_service);
  out += "},\"intended\":{";
  AppendSummary(&out, open_intended);
  out += "}}";
  out += ",\"idle_fleet\":{\"connections\":" +
         std::to_string(fleet.connected()) +
         ",\"target_connections\":" + std::to_string(fleet_target) +
         ",\"target_rps\":" +
         serve::FormatJsonDouble(fleet_arrival.target_rps) +
         ",\"sent\":" + std::to_string(fleet_loop.sent) +
         ",\"errors\":" + std::to_string(fleet_loop.errors) +
         ",\"late_starts\":" + std::to_string(fleet_loop.late_starts) +
         ",\"service\":{";
  AppendSummary(&out, fleet_service);
  out += "},\"intended\":{";
  AppendSummary(&out, fleet_intended);
  out += "}}";
  out += ",\"reactor\":{\"io_backend\":";
  serve::AppendJsonString(&out, stats.io_backend);
  out += ",\"event_loop_threads\":" +
         std::to_string(stats.event_loop_threads) +
         ",\"epoll_wakeups\":" + std::to_string(stats.epoll_wakeups) +
         ",\"writable_backlog_bytes\":" +
         std::to_string(stats.writable_backlog_bytes) +
         ",\"connections_active\":" +
         std::to_string(stats.connections_active) + "}";
  out += ",\"service\":{\"pairs_scored\":" +
         std::to_string(stats.pairs_scored) +
         ",\"batches\":" + std::to_string(stats.batches) +
         ",\"mean_batch_size\":" +
         serve::FormatJsonDouble(
             stats.batches > 0
                 ? static_cast<double>(stats.pairs_scored) /
                       static_cast<double>(stats.batches)
                 : 0.0) +
         ",\"property_cache_hits\":" +
         std::to_string(stats.property_cache_hits) +
         ",\"property_cache_misses\":" +
         std::to_string(stats.property_cache_misses) +
         ",\"embedding_cache_hits\":" +
         std::to_string(stats.embedding_cache_hits) +
         ",\"embedding_cache_misses\":" +
         std::to_string(stats.embedding_cache_misses) +
         ",\"embedding_cache_evictions\":" +
         std::to_string(stats.embedding_cache_evictions) +
         ",\"property_cache_evictions\":" +
         std::to_string(stats.property_cache_evictions) +
         ",\"cache_shards\":" + std::to_string(stats.cache_shards) +
         ",\"embedding_cache_max_probe\":" +
         std::to_string(stats.embedding_cache_max_probe) +
         ",\"property_cache_max_probe\":" +
         std::to_string(stats.property_cache_max_probe) + "}}";
  std::printf("%s\n", out.c_str());

  bench::JsonReport report("serve");
  report.Metric("clients", shape.clients);
  report.Metric("requests_per_client", shape.requests_per_client);
  report.Metric("pairs_per_request", shape.pairs_per_request);
  auto load_fragment = [](const LoadResult& result) {
    std::string fragment;
    AppendLoadResult(&fragment, "r", result);
    // AppendLoadResult emits `"r":{...}`; keep just the object.
    return fragment.substr(fragment.find('{'));
  };
  report.RawMetric("in_process", load_fragment(in_process));
  report.RawMetric("tcp", load_fragment(tcp));
  auto summary_fragment = [](const LatencyRecorder::Summary& summary) {
    std::string fragment = "{";
    AppendSummary(&fragment, summary);
    fragment += "}";
    return fragment;
  };
  report.RawMetric("open_loop_service", summary_fragment(open_service));
  report.RawMetric("open_loop_intended", summary_fragment(open_intended));
  report.Metric("open_loop_sent", open_loop.sent);
  report.Metric("open_loop_errors", open_loop.errors);
  report.Metric("idle_fleet_connections", fleet.connected());
  report.Metric("idle_fleet_target", static_cast<uint64_t>(fleet_target));
  report.RawMetric("idle_fleet_service", summary_fragment(fleet_service));
  report.RawMetric("idle_fleet_intended", summary_fragment(fleet_intended));
  report.Metric("idle_fleet_sent", fleet_loop.sent);
  report.Metric("idle_fleet_errors", fleet_loop.errors);
  std::string backend_json;
  serve::AppendJsonString(&backend_json, stats.io_backend);
  report.RawMetric("io_backend", backend_json);
  report.Metric("event_loop_threads", stats.event_loop_threads);
  report.Metric("epoll_wakeups", stats.epoll_wakeups);
  report.Metric("writable_backlog_bytes", stats.writable_backlog_bytes);
  report.Metric("connections_active", stats.connections_active);
  report.Metric("pairs_scored", stats.pairs_scored);
  report.Metric("batches", stats.batches);
  report.Metric("embedding_cache_hits", stats.embedding_cache_hits);
  report.Metric("embedding_cache_misses", stats.embedding_cache_misses);
  report.Metric("embedding_cache_evictions", stats.embedding_cache_evictions);
  report.Metric("embedding_cache_max_probe", stats.embedding_cache_max_probe);
  report.Metric("property_cache_hits", stats.property_cache_hits);
  report.Metric("property_cache_misses", stats.property_cache_misses);
  report.Metric("property_cache_evictions", stats.property_cache_evictions);
  report.Metric("property_cache_max_probe", stats.property_cache_max_probe);
  report.Metric("cache_shards", stats.cache_shards);
  bench::WriteJsonReport(report);
  return 0;
}
