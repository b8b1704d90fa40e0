// Sustained-load soak benchmark: open-loop Zipf index_match traffic at a
// fixed target RPS against the full serve stack (scaled multi-category
// catalog -> MatcherService with catalog index -> TcpServer on loopback),
// with coordinated-omission-safe latency accounting (DESIGN.md §15).
//
// Unlike serve_bench's closed-loop phases, the arrival schedule here is
// fixed before the run: a slow or stalled server makes requests fire
// late, and their latency is charged from the *intended* send time. Both
// clocks are reported so the CO gap is visible in BENCH_soak.json.
//
// Environment knobs: LEAPME_SCALE (test | bench | paper), LEAPME_FAULTS
// (armed process-wide on first use, so a chaos mix degrades this very
// server), LEAPME_BENCH_DIR.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/faults/fault_injector.h"
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

struct SoakShape {
  size_t catalog_properties;
  size_t catalog_sources;
  size_t entities_per_source;
  size_t clients;
  double target_rps;
  double duration_s;
  double zipf_s;
  size_t top_k;
  // name-token's stop-bucket cut is relative to the catalog, so the
  // spec tightens as the catalog grows: at 10^6 properties a shared
  // ontology token ("price", "brand") buckets tens of thousands of
  // properties across categories — the cut must sit above the ~10^2
  // per-category tag bucket but below those cross-category buckets.
  const char* blocking_spec;
};

SoakShape ShapeFor(eval::EvalScale scale) {
  switch (scale) {
    case eval::EvalScale::kTest:
      return {1500, 20, 6, 2, 120.0, 1.5, 1.0, 5, "name-token"};
    case eval::EvalScale::kPaper:
      // The acceptance configuration: a 10^6-property catalog across
      // hundreds of sources in serve index mode.
      return {1000000, 400,  10, 4, 80.0, 12.0, 1.0, 5,
              "name-token:max-freq=0.0005"};
    default:
      return {40000, 100, 8, 4, 120.0, 5.0, 1.0, 5,
              "name-token:max-freq=0.02"};
  }
}

std::string SummaryJson(const LatencyRecorder& recorder) {
  const LatencyRecorder::Summary s = recorder.Snapshot();
  return "{\"count\":" + std::to_string(s.count) +
         ",\"p50_us\":" + serve::FormatJsonDouble(s.p50_us) +
         ",\"p95_us\":" + serve::FormatJsonDouble(s.p95_us) +
         ",\"p99_us\":" + serve::FormatJsonDouble(s.p99_us) +
         ",\"p999_us\":" + serve::FormatJsonDouble(s.p999_us) +
         ",\"max_us\":" + serve::FormatJsonDouble(s.max_us) +
         ",\"mean_us\":" + serve::FormatJsonDouble(s.mean_us) + "}";
}

/// Renders one index_match request line for a catalog property.
std::string IndexMatchLine(const data::Dataset& catalog,
                           data::PropertyId id, size_t event, size_t k) {
  std::string line = "{\"op\":\"index_match\",\"id\":" +
                     std::to_string(event) + ",\"property\":{\"name\":";
  serve::AppendJsonString(&line, catalog.property(id).name);
  line += ",\"values\":[";
  const auto& instances = catalog.instances(id);
  for (size_t i = 0; i < instances.size(); ++i) {
    if (i > 0) line += ',';
    serve::AppendJsonString(&line, instances[i].value);
  }
  line += "]},\"k\":" + std::to_string(k) + "}";
  return line;
}

workload::Outcome ClassifyResponse(const std::string& response) {
  auto parsed = serve::JsonValue::Parse(response);
  if (!parsed.ok()) return workload::Outcome::kError;
  const serve::JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool()) return workload::Outcome::kError;
  if (ok->AsBool()) {
    const serve::JsonValue* degraded = parsed->Find("degraded");
    return degraded != nullptr && degraded->is_bool() && degraded->AsBool()
               ? workload::Outcome::kDegraded
               : workload::Outcome::kOk;
  }
  const serve::JsonValue* error = parsed->Find("error");
  const serve::JsonValue* code =
      error != nullptr && error->is_object() ? error->Find("code") : nullptr;
  if (code != nullptr && code->is_string()) {
    const std::string& name = code->AsString();
    if (name == "Unavailable" || name == "ResourceExhausted") {
      return workload::Outcome::kShed;
    }
    if (name == "DeadlineExceeded") return workload::Outcome::kDeadline;
  }
  return workload::Outcome::kError;
}

}  // namespace

int main() {
  const SoakShape shape = ShapeFor(bench::ScaleFromEnv());

  // Scaled multi-category catalog: the serve index.
  data::ScaledCatalogOptions catalog_options;
  catalog_options.target_properties = shape.catalog_properties;
  catalog_options.num_sources = shape.catalog_sources;
  catalog_options.entities_per_source = shape.entities_per_source;
  catalog_options.sources_per_category =
      std::min<size_t>(6, shape.catalog_sources);
  catalog_options.seed = 101;
  auto catalog = data::GenerateScaledCatalog(catalog_options);
  bench::CheckOk(catalog.status(), "GenerateScaledCatalog");
  std::fprintf(stderr, "soak_bench: catalog %zu properties / %zu sources / "
                       "%zu instances\n",
               catalog->property_count(), catalog->source_count(),
               catalog->instance_count());

  // Embedding space covering every domain's vocabulary; words the
  // clusters miss fall back to hashed vectors.
  std::vector<embedding::SemanticCluster> clusters;
  for (const data::DomainSpec* domain : data::AllDomains()) {
    auto domain_clusters = data::DomainClusters(*domain);
    clusters.insert(clusters.end(), domain_clusters.begin(),
                    domain_clusters.end());
  }
  auto base_model = embedding::SyntheticEmbeddingModel::Build(
      clusters, {.dimension = 16,
                 .seed = 102,
                 .oov_policy = embedding::OovPolicy::kHashedVector});
  bench::CheckOk(base_model.status(), "SyntheticEmbeddingModel::Build");
  embedding::CachingEmbeddingModel cached(&base_model.value(), 1 << 17);

  // A small conventional catalog trains the matcher; the scaled catalog
  // is then attached as the serve index (training over 10^6 properties
  // is not what this benchmark measures).
  data::GeneratorOptions train_options;
  train_options.num_sources = 4;
  train_options.min_entities_per_source = 10;
  train_options.max_entities_per_source = 10;
  train_options.seed = 103;
  auto train_set = data::GenerateCatalog(data::TvDomain(), train_options);
  bench::CheckOk(train_set.status(), "GenerateCatalog");
  Rng rng(104);
  data::SourceSplit split = data::SplitSources(*train_set, 0.8, rng);
  auto training =
      data::BuildTrainingPairs(*train_set, split.train_sources, 2.0, rng);
  bench::CheckOk(training.status(), "BuildTrainingPairs");
  core::LeapmeMatcher matcher(&cached);
  bench::CheckOk(matcher.Fit(*train_set, *training), "Fit");

  auto registry = serve::ModelRegistry::WrapExisting(&matcher, &cached);
  bench::CheckOk(registry.status(), "ModelRegistry::WrapExisting");
  serve::ServiceOptions service_options;
  service_options.max_queue_pairs = 8192;
  auto service =
      serve::MatcherService::Create(registry->get(), service_options);
  bench::CheckOk(service.status(), "MatcherService::Create");

  // Name-token blocking: at 10^6 properties the category tag token
  // scopes each query to its category's few-hundred candidates without
  // an embedding index over the full catalog.
  bench::CheckOk((*registry)->AttachCatalog(&*catalog, shape.blocking_spec),
                 "AttachCatalog");
  std::fprintf(stderr, "soak_bench: catalog attached and indexed\n");

  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.deadline_ms = 750;
  serve::TcpServer server(service->get(), server_options);
  bench::CheckOk(server.Start(), "TcpServer::Start");
  if (!tools::WaitForServerReady("127.0.0.1", server.port())) {
    std::fprintf(stderr, "soak_bench: server never reported ready\n");
    return 1;
  }

  // Zipf request sampler + open-loop schedule, both seeded: the same
  // traffic fires at any client thread count.
  auto sampler = workload::RequestSampler::Build(
      {.catalog_size = catalog->property_count(),
       .zipf_s = shape.zipf_s,
       .seed = 105});
  bench::CheckOk(sampler.status(), "RequestSampler::Build");
  auto schedule = workload::ArrivalSchedule::Build(
      {.target_rps = shape.target_rps,
       .duration_s = shape.duration_s,
       .poisson = true,
       .seed = 106});
  bench::CheckOk(schedule.status(), "ArrivalSchedule::Build");

  const int port = server.port();
  workload::OpenLoopResult result;
  workload::RunOpenLoop(
      *schedule, static_cast<unsigned>(shape.clients),
      [&](size_t event) {
        thread_local std::unique_ptr<tools::LineClient> client;
        if (client == nullptr || !client->connected()) {
          client = std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        if (!client->connected()) return workload::Outcome::kError;
        const auto id = static_cast<data::PropertyId>(
            sampler->PropertyAt(event));
        std::string response;
        if (!client->SendLine(
                IndexMatchLine(*catalog, id, event, shape.top_k)) ||
            !client->ReadLine(&response)) {
          // Connection dropped (server deadline close, injected fault):
          // reconnect on the next event, count this one as an error.
          client.reset();
          return workload::Outcome::kError;
        }
        return ClassifyResponse(response);
      },
      &result);

  const serve::ServiceStats stats = (*service)->Snapshot();
  server.Stop();

  const double achieved_rps =
      result.elapsed_s > 0.0
          ? static_cast<double>(result.sent) / result.elapsed_s
          : 0.0;
  std::string out =
      "{\"config\":{\"catalog_properties\":" +
      std::to_string(catalog->property_count()) +
      ",\"catalog_sources\":" + std::to_string(catalog->source_count()) +
      ",\"clients\":" + std::to_string(shape.clients) +
      ",\"target_rps\":" + serve::FormatJsonDouble(shape.target_rps) +
      ",\"duration_s\":" + serve::FormatJsonDouble(shape.duration_s) +
      ",\"zipf_s\":" + serve::FormatJsonDouble(shape.zipf_s) +
      ",\"blocking\":\"" + shape.blocking_spec +
      "\",\"faults\":" + (faults::FaultInjector::Global().armed()
                            ? std::string("true")
                            : std::string("false")) +
      "},\"achieved_rps\":" + serve::FormatJsonDouble(achieved_rps) +
      ",\"sent\":" + std::to_string(result.sent) +
      ",\"ok\":" + std::to_string(result.ok) +
      ",\"degraded\":" + std::to_string(result.degraded) +
      ",\"shed\":" + std::to_string(result.shed) +
      ",\"deadline\":" + std::to_string(result.deadline) +
      ",\"errors\":" + std::to_string(result.errors) +
      ",\"late_starts\":" + std::to_string(result.late_starts) +
      ",\"intended\":" + SummaryJson(result.intended) +
      ",\"service\":" + SummaryJson(result.service) +
      ",\"server\":{\"rejected_overload\":" +
      std::to_string(stats.rejected_overload) +
      ",\"deadline_exceeded\":" + std::to_string(stats.deadline_exceeded) +
      ",\"degraded_responses\":" +
      std::to_string(stats.degraded_responses) +
      ",\"faults_injected\":" + std::to_string(stats.faults_injected) +
      ",\"queue_depth\":" + std::to_string(stats.queue_depth) +
      ",\"queue_age_us\":" + std::to_string(stats.queue_age_us) +
      ",\"pairs_scored\":" + std::to_string(stats.pairs_scored) +
      ",\"io_backend\":\"" + stats.io_backend +
      "\",\"event_loop_threads\":" +
      std::to_string(stats.event_loop_threads) +
      ",\"epoll_wakeups\":" + std::to_string(stats.epoll_wakeups) +
      ",\"writable_backlog_bytes\":" +
      std::to_string(stats.writable_backlog_bytes) +
      ",\"connections_active\":" +
      std::to_string(stats.connections_active) +
      ",\"embedding_cache_hits\":" +
      std::to_string(stats.embedding_cache_hits) +
      ",\"embedding_cache_misses\":" +
      std::to_string(stats.embedding_cache_misses) +
      ",\"embedding_cache_evictions\":" +
      std::to_string(stats.embedding_cache_evictions) +
      ",\"property_cache_hits\":" +
      std::to_string(stats.property_cache_hits) +
      ",\"property_cache_misses\":" +
      std::to_string(stats.property_cache_misses) +
      ",\"property_cache_evictions\":" +
      std::to_string(stats.property_cache_evictions) +
      ",\"cache_shards\":" + std::to_string(stats.cache_shards) +
      ",\"model_version\":" + std::to_string(stats.model_version) + "}}";
  std::printf("%s\n", out.c_str());

  bench::JsonReport report("soak");
  report.Metric("catalog_properties", catalog->property_count());
  report.Metric("catalog_sources", catalog->source_count());
  report.Metric("clients", shape.clients);
  report.RawMetric("target_rps", serve::FormatJsonDouble(shape.target_rps));
  report.RawMetric("achieved_rps", serve::FormatJsonDouble(achieved_rps));
  report.Metric("sent", result.sent);
  report.Metric("ok", result.ok);
  report.Metric("degraded", result.degraded);
  report.Metric("shed", result.shed);
  report.Metric("deadline", result.deadline);
  report.Metric("errors", result.errors);
  report.Metric("late_starts", result.late_starts);
  report.RawMetric("intended", SummaryJson(result.intended));
  report.RawMetric("service", SummaryJson(result.service));
  report.Metric("server_rejected_overload", stats.rejected_overload);
  report.Metric("server_deadline_exceeded", stats.deadline_exceeded);
  report.Metric("server_degraded_responses", stats.degraded_responses);
  report.Metric("server_faults_injected", stats.faults_injected);
  report.Metric("server_pairs_scored", stats.pairs_scored);
  report.Metric("server_queue_depth", stats.queue_depth);
  report.Metric("server_queue_age_us", stats.queue_age_us);
  std::string backend_json;
  serve::AppendJsonString(&backend_json, stats.io_backend);
  report.RawMetric("server_io_backend", backend_json);
  report.Metric("server_event_loop_threads", stats.event_loop_threads);
  report.Metric("server_epoll_wakeups", stats.epoll_wakeups);
  report.Metric("server_writable_backlog_bytes",
                stats.writable_backlog_bytes);
  report.Metric("server_connections_active", stats.connections_active);
  report.Metric("server_embedding_cache_hits", stats.embedding_cache_hits);
  report.Metric("server_embedding_cache_misses",
                stats.embedding_cache_misses);
  report.Metric("server_embedding_cache_evictions",
                stats.embedding_cache_evictions);
  report.Metric("server_property_cache_hits", stats.property_cache_hits);
  report.Metric("server_property_cache_misses", stats.property_cache_misses);
  report.Metric("server_property_cache_evictions",
                stats.property_cache_evictions);
  report.Metric("server_cache_shards", stats.cache_shards);
  // Which model generation answered the soak: >1 would mean a reload
  // happened mid-run (none is driven here, but the provenance is free).
  report.Metric("model_version", stats.model_version);
  bench::WriteJsonReport(report);
  return 0;
}
