#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "blocking/candidate_pipeline.h"
#include "checks.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/splitting.h"
#include "data/tsv_io.h"
#include "fixtures.h"
#include "loadgen.h"
#include "metrics.h"
#include "ml/metrics.h"
#include "serve/json.h"
#include "serve/matcher_service.h"
#include "server_process.h"
#include "trace.h"
#include "workload/arrival.h"
#include "workload/zipf.h"

namespace perfbench {

using namespace leapme;
using data::PropertyId;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Rates and latency limits are absolute, fixed here,
// and never derived from a measured pass (README.md gives their origin).

// serve-score: open loop, Poisson arrivals at a fixed absolute rate of
// about half this host's capacity; each request scores one query property
// against a few candidates.
constexpr const char* kServeScore = "serve-score";
constexpr double kScoreRate = 1000.0;
constexpr size_t kScoreCandidates = 4;
// Latency limit of slo_frac: 5x the 0.6 ms p50 measured when it was set.
constexpr double kScoreSloMs = 3.0;
// offline-match: one unit of work is a ScoreCandidates pass.
constexpr double kOfflineSloMs = 300.0;
constexpr size_t kOfflineK = 5;
// Threads of Fit and ScoreCandidates. A pass waits for its slowest
// thread, and at 4 threads on 4 shared vCPUs one preempted thread set the
// pass time: `p50_ms` spread 25% over ten seeds (README.md).
constexpr size_t kOfflineThreads = 2;

constexpr double kWarmupS = 2.0;
constexpr int kSetupRepeats = 5;
constexpr double kZipfS = 1.0;
constexpr uint64_t kTrafficStream = 11;
constexpr uint64_t kBaselineStream = 12;
constexpr uint64_t kWarmupStream = 13;
constexpr uint64_t kDelayedAckStream = 14;
// The serving configuration: the catalog is attached, and the server's
// compute pool plus the generator thread fill the host.
constexpr const char* kServeBlocking = "name-token:max-freq=0.005";
constexpr const char* kOfflineBlocking = "union(name-token,embedding-lsh)";
constexpr double kSidePhaseS = 10.0;
// The in-process replay of a traced run stops after this long.
constexpr double kReplayBudgetS = 4.0;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Report lines printed before the result line.
void Say(const std::string& line) { std::printf("%s\n", line.c_str()); }

// ---------------------------------------------------------------------------
// Traffic

/// One score request: a query property against its candidates.
struct ScoreGroup {
  PropertyId query = 0;
  std::vector<PropertyId> candidates;
};

struct Traffic {
  std::vector<ScoreGroup> requests;
  std::vector<std::string> lines;  // rendered, each ending in '\n'
  std::vector<uint64_t> intended_ns;
};

class TrafficMaker {
 public:
  TrafficMaker(const ServingFixture& fixture, uint64_t seed)
      : fixture_(fixture),
        zipf_(fixture.catalog.property_count(), kZipfS),
        json_(fixture.catalog.property_count()) {
    // One popularity order for every stream, so hot properties are the
    // same in warm-up and timed traffic.
    Rng rng(Mix64(seed + 101));
    popularity_.resize(fixture.catalog.property_count());
    std::iota(popularity_.begin(), popularity_.end(), PropertyId{0});
    rng.Shuffle(popularity_);
  }

  /// `duration_s` of Poisson arrivals at kScoreRate from stream `stream`.
  Traffic Make(uint64_t seed, uint64_t stream, double duration_s) {
    Traffic traffic;
    workload::ArrivalOptions options;
    options.target_rps = kScoreRate;
    options.duration_s = duration_s;
    options.poisson = true;
    options.seed = Mix64(seed * 31 + stream);
    auto schedule = workload::ArrivalSchedule::Build(options);
    const size_t count = schedule.ok() ? schedule->size() : 0;
    Rng rng(Mix64(seed * 131 + stream));
    for (size_t i = 0; i < count; ++i) {
      traffic.intended_ns.push_back(schedule->intended_nanos(i));
      ScoreGroup group = MakeGroup(rng);
      std::string line =
          "{\"op\":\"score\",\"id\":" + std::to_string(i) + ",\"pairs\":[";
      for (size_t c = 0; c < group.candidates.size(); ++c) {
        if (c > 0) line += ',';
        line += "{\"a\":" + CatalogJson(group.query) +
                ",\"b\":" + CatalogJson(group.candidates[c]) + "}";
      }
      line += "]}\n";
      traffic.requests.push_back(std::move(group));
      traffic.lines.push_back(std::move(line));
    }
    return traffic;
  }

 private:
  PropertyId Draw(Rng& rng) const {
    return popularity_[zipf_.Sample(rng.NextDouble())];
  }

  /// A query and its candidates: one true match when the catalog holds
  /// one (at a random position), the rest drawn like the query.
  ScoreGroup MakeGroup(Rng& rng) const {
    ScoreGroup group;
    group.query = Draw(rng);
    const data::PropertyRecord& query = fixture_.catalog.property(group.query);
    std::vector<PropertyId> matches;
    if (!query.reference.empty()) {
      for (PropertyId id : fixture_.by_reference.at(query.reference)) {
        if (fixture_.catalog.property(id).source != query.source) {
          matches.push_back(id);
        }
      }
    }
    while (group.candidates.size() + (matches.empty() ? 0 : 1) <
           kScoreCandidates) {
      group.candidates.push_back(Draw(rng));
    }
    if (!matches.empty()) {
      const PropertyId match = matches[rng.NextBounded(matches.size())];
      const size_t at = rng.NextBounded(group.candidates.size() + 1);
      group.candidates.insert(group.candidates.begin() + at, match);
    }
    return group;
  }

  static std::string SpecJson(const serve::PropertySpec& spec) {
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

  const std::string& CatalogJson(PropertyId id) {
    if (json_[id].empty()) json_[id] = SpecJson(SpecOf(fixture_.catalog, id));
    return json_[id];
  }

  const ServingFixture& fixture_;
  workload::ZipfDistribution zipf_;
  std::vector<PropertyId> popularity_;
  std::vector<std::string> json_;
};

bool IsTrueMatch(const data::Dataset& catalog, PropertyId a, PropertyId b) {
  const data::PropertyRecord& x = catalog.property(a);
  const data::PropertyRecord& y = catalog.property(b);
  return !x.reference.empty() && x.reference == y.reference &&
         x.source != y.source;
}

// ---------------------------------------------------------------------------
// Server stats (the `stats` op) and their deltas across a phase.

struct Stats {
  std::map<std::string, double> counters;
  std::map<std::string, double> stage_property_ns, stage_property_calls;
  std::map<std::string, double> stage_pair_ns, stage_pair_calls;
  std::string kernel;
  bool ok = false;

  double Get(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

Stats ReadStats(int port) {
  Stats stats;
  std::string reply;
  if (!RoundTrip(port, "{\"op\":\"stats\",\"id\":0}", &reply)) return stats;
  auto parsed = serve::JsonValue::Parse(reply);
  if (!parsed.ok()) return stats;
  const serve::JsonValue* body = parsed->Find("stats");
  if (body == nullptr || !body->is_object()) return stats;
  for (const std::string& key : body->ObjectKeys()) {
    const serve::JsonValue* value = body->Find(key);
    if (value->is_number()) stats.counters[key] = value->AsNumber();
  }
  if (const serve::JsonValue* kernel = body->Find("kernel");
      kernel != nullptr && kernel->is_string()) {
    stats.kernel = kernel->AsString();
  }
  if (const serve::JsonValue* stages = body->Find("feature_stages");
      stages != nullptr && stages->is_array()) {
    for (const serve::JsonValue& stage : stages->AsArray()) {
      const serve::JsonValue* name = stage.Find("name");
      if (name == nullptr || !name->is_string()) continue;
      const auto number = [&](const char* key) {
        const serve::JsonValue* v = stage.Find(key);
        return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
      };
      stats.stage_property_ns[name->AsString()] = number("property_ns");
      stats.stage_property_calls[name->AsString()] = number("property_calls");
      stats.stage_pair_ns[name->AsString()] = number("pair_ns");
      stats.stage_pair_calls[name->AsString()] = number("pair_calls");
    }
  }
  stats.ok = true;
  return stats;
}

// ---------------------------------------------------------------------------
// Metric assembly

const std::vector<std::string>& StageNames() {
  static const auto* kNames = new std::vector<std::string>{
      "char_class_meta", "token_class_meta", "numeric_value",
      "value_embedding", "name_embedding",   "string_distances"};
  return *kNames;
}

/// Per-layer values a workload does not reach stay 0: that layer is
/// bypassed (README.md, "Bypassed layers").
struct LayerValues {
  double late_frac = 0.0, max_lag_ms = 0.0;
  double reactor_self_us = 0.0, wakeups_per_req = 0.0, threads = 0.0;
  double ack_wait_ms = 0.0;
  double parse_us = 0.0, serialize_us = 0.0, bytes_per_req = 0.0;
  double service_self_us = 0.0, batch_pairs_mean = 0.0;
  double server_p50_us = 0.0, shed_frac = 0.0, attach_s = 0.0;
  double property_hit_ratio = 0.0, property_evictions_per_req = 0.0;
  double embedding_hit_ratio = 0.0, embedding_evictions_per_req = 0.0;
  double property_us = 0.0, pair_ns = 0.0;
  std::map<std::string, double> stage_property_ns, stage_pair_ns;
  double infer_ns = 0.0, train_s = 0.0;
  double index_build_s = 0.0;
  double candidates_s = 0.0, reduction = 0.0;
  double load_s = 0.0;
  double overhead_p50_ms = 0.0;
};

std::vector<Metric> LayerMetrics(const LayerValues& v) {
  std::vector<Metric> m;
  m.push_back({"workload.late_frac", v.late_frac, "ratio"});
  m.push_back({"workload.max_lag_ms", v.max_lag_ms, "ms"});
  m.push_back({"serve.wire.ack_wait_ms", v.ack_wait_ms, "ms"});
  m.push_back({"serve.reactor.self_us", v.reactor_self_us, "us"});
  m.push_back({"serve.reactor.wakeups_per_req", v.wakeups_per_req, "count"});
  m.push_back({"serve.threads", v.threads, "count"});
  m.push_back({"serve.protocol.parse_us", v.parse_us, "us"});
  m.push_back({"serve.protocol.serialize_us", v.serialize_us, "us"});
  m.push_back({"serve.protocol.bytes_per_req", v.bytes_per_req, "bytes"});
  m.push_back({"serve.service.self_us", v.service_self_us, "us"});
  m.push_back({"serve.service.batch_pairs_mean", v.batch_pairs_mean, "count"});
  m.push_back({"serve.service.server_p50_us", v.server_p50_us, "us"});
  m.push_back({"serve.service.shed_frac", v.shed_frac, "ratio"});
  m.push_back({"serve.registry.attach_s", v.attach_s, "s"});
  m.push_back({"cache.property.hit_ratio", v.property_hit_ratio, "ratio"});
  m.push_back({"cache.property.evictions_per_req", v.property_evictions_per_req,
               "count"});
  m.push_back({"cache.embedding.hit_ratio", v.embedding_hit_ratio, "ratio"});
  m.push_back({"cache.embedding.evictions_per_req",
               v.embedding_evictions_per_req, "count"});
  m.push_back({"features.property_us", v.property_us, "us"});
  m.push_back({"features.pair_ns", v.pair_ns, "ns"});
  for (const std::string& stage : StageNames()) {
    auto get = [&](const std::map<std::string, double>& values) {
      auto it = values.find(stage);
      return it == values.end() ? 0.0 : it->second;
    };
    m.push_back({"features." + stage + ".property_ns",
                 get(v.stage_property_ns), "ns"});
    m.push_back({"features." + stage + ".pair_ns", get(v.stage_pair_ns), "ns"});
  }
  m.push_back({"nn.infer_ns", v.infer_ns, "ns"});
  m.push_back({"nn.train_s", v.train_s, "s"});
  m.push_back({"blocking.index_build_s", v.index_build_s, "s"});
  m.push_back({"blocking.candidates_s", v.candidates_s, "s"});
  m.push_back({"blocking.reduction", v.reduction, "ratio"});
  m.push_back({"data.load_s", v.load_s, "s"});
  m.push_back({"trace.overhead_p50_ms", v.overhead_p50_ms, "ms"});
  return m;
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0, p50_ms = 0.0, p90_ms = 0.0, slo_frac = 0.0;
  double pairs_per_s = 0.0, cpu_us_per_pair = 0.0, peak_rss_mb = 0.0;
  double recall_at_k = 0.0, f1 = 0.0, completeness = 0.0;
};

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  std::vector<Metric> m;
  m.push_back({"setup_s", e.setup_s, "s"});
  m.push_back({"p50_ms", e.p50_ms, "ms"});
  m.push_back({"p90_ms", e.p90_ms, "ms"});
  m.push_back({"slo_frac", e.slo_frac, "ratio"});
  m.push_back({"pairs_per_s", e.pairs_per_s, "1/s"});
  m.push_back({"cpu_us_per_pair", e.cpu_us_per_pair, "us"});
  m.push_back({"peak_rss_mb", e.peak_rss_mb, "MB"});
  m.push_back({"recall_at_k", e.recall_at_k, "ratio"});
  m.push_back({"f1", e.f1, "ratio"});
  m.push_back({"completeness", e.completeness, "ratio"});
  return m;
}

double F1(uint64_t tp, uint64_t fp, uint64_t fn) {
  return Ratio(2.0 * static_cast<double>(tp),
               2.0 * static_cast<double>(tp) + static_cast<double>(fp) +
                   static_cast<double>(fn));
}

// ---------------------------------------------------------------------------
// serve-score

struct PhaseResult {
  LoadResult load;
  OutcomeCounts counts;
  std::vector<Outcome> outcomes;
  /// The checked scores of each record (CheckScorePhase).
  std::vector<std::vector<double>> scores;
  uint64_t pairs_ok = 0;
};

PhaseResult RunPhase(const LoadTarget& target, const Traffic& traffic) {
  PhaseResult phase;
  phase.load = RunOpenLoop(target, traffic.lines, traffic.intended_ns);
  for (size_t i = 0; i < phase.load.records.size(); ++i) {
    const Outcome outcome = ClassifyReply(phase.load.replies[i]);
    phase.outcomes.push_back(outcome);
    phase.counts.Add(outcome);
  }
  return phase;
}

/// Latencies (ms) of the ok requests, from their intended send time.
std::vector<double> LatenciesMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.load.records.size(); ++i) {
    if (phase.outcomes[i] != Outcome::kOk) continue;
    const RequestRecord& r = phase.load.records[i];
    out.push_back(static_cast<double>(r.done_ns - r.intended_ns) / 1e6);
  }
  return out;
}

double P50Ms(const PhaseResult& phase) {
  return Quantile(LatenciesMs(phase), 0.5);
}

/// The in-process serving stack: the same model file, catalog and
/// service options as the server, for reference scores and the replay.
struct ReferenceStack {
  std::unique_ptr<serve::ModelRegistry> registry;
  data::Dataset catalog{""};
  std::unique_ptr<serve::MatcherService> service;
  double load_s = 0.0;
  double attach_s = 0.0;
  double index_build_s = 0.0;
};

bool BuildReference(const ServingFixture& fixture, bool with_catalog,
                    ReferenceStack* stack, std::string* error) {
  stack->registry = std::make_unique<serve::ModelRegistry>(
      MakeLoader(fixture.embedding));
  Status status = stack->registry->Init(fixture.model_path);
  if (status.ok() && with_catalog) {
    uint64_t start = NowNs();
    auto catalog = data::ReadDatasetTsv(fixture.catalog_path);
    stack->load_s = Seconds(NowNs() - start);
    if (!catalog.ok()) {
      *error = catalog.status().ToString();
      return false;
    }
    stack->catalog = std::move(catalog).value();
    start = NowNs();
    status = stack->registry->AttachCatalog(&stack->catalog, kServeBlocking);
    stack->attach_s = Seconds(NowNs() - start);
    // The index build alone, on a twin pipeline over the same catalog.
    auto twin = blocking::CandidatePipeline::Parse(
        kServeBlocking,
        stack->registry->Acquire()->embedding_cache());
    if (status.ok() && twin.ok()) {
      start = NowNs();
      status = (*twin)->BuildIndex(stack->catalog);
      stack->index_build_s = Seconds(NowNs() - start);
    }
  }
  if (status.ok()) {
    // ServiceOptions as `leapme serve` sets them by default.
    serve::ServiceOptions options;
    options.max_queue_pairs = 65536;
    auto service = serve::MatcherService::Create(stack->registry.get(),
                                                 options);
    if (!service.ok()) {
      status = service.status();
    } else {
      stack->service = std::move(service).value();
    }
  }
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  return true;
}

/// In-process scores of every pair of every request (in request order).
std::vector<std::vector<double>> ReferenceScores(
    const core::LeapmeMatcher& matcher, const data::Dataset& catalog,
    const Traffic& traffic) {
  std::vector<char> used(catalog.property_count(), 0);
  for (const ScoreGroup& request : traffic.requests) {
    used[request.query] = 1;
    for (PropertyId c : request.candidates) used[c] = 1;
  }
  std::vector<std::unique_ptr<features::PropertyFeatures>> features(
      catalog.property_count());
  ParallelFor(0, catalog.property_count(), /*grain=*/64,
              [&](size_t begin, size_t end) {
                for (size_t id = begin; id < end; ++id) {
                  if (!used[id]) continue;
                  const serve::PropertySpec spec =
                      SpecOf(catalog, static_cast<PropertyId>(id));
                  features[id] = std::make_unique<features::PropertyFeatures>(
                      matcher.ComputePropertyFeatures(spec.name,
                                                      spec.values));
                }
              });
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  for (const ScoreGroup& request : traffic.requests) {
    for (PropertyId c : request.candidates) {
      lhs.push_back(features[request.query].get());
      rhs.push_back(features[c].get());
    }
  }
  std::vector<std::vector<double>> out(traffic.requests.size());
  auto scores = matcher.ScoreFeaturePairs(lhs, rhs);
  if (!scores.ok()) return out;
  size_t next = 0;
  for (size_t i = 0; i < traffic.requests.size(); ++i) {
    const size_t n = traffic.requests[i].candidates.size();
    out[i].assign(scores->begin() + static_cast<ptrdiff_t>(next),
                  scores->begin() + static_cast<ptrdiff_t>(next + n));
    next += n;
  }
  return out;
}

/// Checks every reply of a phase against the in-process scores of the
/// same model file, and counts the pairs that came back ok.
void CheckPhase(const core::LeapmeMatcher& matcher,
                const ServingFixture& fixture, const Traffic& traffic,
                PhaseResult& phase, Verdict& verdict) {
  phase.scores = CheckScorePhase(
      phase.load, phase.outcomes,
      ReferenceScores(matcher, fixture.catalog, traffic), &verdict);
  for (size_t i = 0; i < phase.scores.size(); ++i) {
    phase.pairs_ok += phase.scores[i].size();
  }
}

/// Quality of the served answers, from the checked scores.
struct Quality {
  uint64_t tp = 0, fp = 0, fn = 0;
  uint64_t recall_queries = 0, recall_hits = 0;
  uint64_t true_pairs = 0, true_pairs_ok = 0;
};

Quality ScoreQuality(const ServingFixture& fixture, const Traffic& traffic,
                     const PhaseResult& phase) {
  Quality quality;
  for (size_t i = 0; i < phase.load.records.size(); ++i) {
    const ScoreGroup& request = traffic.requests[phase.load.records[i].line];
    const std::vector<double>& scores = phase.scores[i];
    size_t best = 0;
    bool has_true = false;
    for (size_t c = 0; c < request.candidates.size(); ++c) {
      const bool is_true =
          IsTrueMatch(fixture.catalog, request.query, request.candidates[c]);
      quality.true_pairs += is_true;
      if (scores.empty()) continue;  // the request did not come back ok
      const bool predicted = scores[c] >= 0.5;
      has_true = has_true || is_true;
      quality.tp += predicted && is_true;
      quality.fp += predicted && !is_true;
      quality.fn += !predicted && is_true;
      quality.true_pairs_ok += is_true;
      if (scores[c] > scores[best]) best = c;
    }
    if (has_true) {
      ++quality.recall_queries;
      quality.recall_hits +=
          IsTrueMatch(fixture.catalog, request.query, request.candidates[best])
              ? 1
              : 0;
    }
  }
  return quality;
}

/// The traced replay of a phase's request lines through the in-process
/// stack (README.md, "Per-layer metrics").
struct ReplayOutcome {
  std::vector<double> handle_line_us;   // per replayed request
  std::vector<double> service_self_us;  // HandleLine minus its parts
  std::vector<double> parse_us, serialize_us, property_us;
  double design_ns = 0.0, score_ns = 0.0, rows = 0.0;
  size_t replayed = 0;
};

ReplayOutcome Replay(ReferenceStack& stack, const Traffic& traffic,
                     Tracer& tracer) {
  ReplayOutcome out;
  const auto generation = stack.registry->Acquire();
  const core::LeapmeMatcher& matcher = generation->matcher();
  const std::vector<size_t> columns = DesignColumns(matcher);
  const uint32_t kHandle = tracer.Intern("serve.handle_line");
  const uint32_t kRequest = tracer.Intern("replay.request");
  const uint32_t kParse = tracer.Intern("protocol.parse");
  const uint32_t kGather = tracer.Intern("features.gather");
  const uint32_t kProperty = tracer.Intern("features.property");
  const uint32_t kScore = tracer.Intern("nn.score");
  const uint32_t kSerialize = tracer.Intern("protocol.serialize");
  const uint32_t kDesign = tracer.Intern("features.design_matrix");
  // Mirrors the service's property cache: a repeated property is not
  // recomputed.
  std::unordered_map<std::string, features::PropertyFeatures> cache;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(kReplayBudgetS * 1e9);
  for (size_t i = 0; i < traffic.lines.size() && NowNs() < deadline; ++i) {
    const std::string_view line(traffic.lines[i].data(),
                                traffic.lines[i].size() - 1);
    {
      ScopedSpan span(tracer, kHandle, kNoParent, i);
      (void)stack.service->HandleLine(line);
      out.handle_line_us.push_back(span.CloseUs());
    }
    std::vector<const features::PropertyFeatures*> lhs, rhs;
    {
      ScopedSpan request(tracer, kRequest, kNoParent, i);
      const uint32_t root = request.index();
      StatusOr<serve::Request> parsed = [&] {
        ScopedSpan span(tracer, kParse, root, i);
        auto result = serve::ParseRequest(line);
        out.parse_us.push_back(span.CloseUs());
        return result;
      }();
      if (!parsed.ok()) continue;
      {
        ScopedSpan gather(tracer, kGather, root, i);
        const auto features_of = [&](const serve::PropertySpec& spec)
            -> const features::PropertyFeatures* {
          std::string key = spec.name;
          for (const std::string& value : spec.values) {
            key += '\x1f';
            key += value;
          }
          auto it = cache.find(key);
          if (it != cache.end()) return &it->second;
          ScopedSpan span(tracer, kProperty, gather.index(), i);
          auto inserted = cache.emplace(
              std::move(key),
              matcher.ComputePropertyFeatures(spec.name, spec.values));
          out.property_us.push_back(span.CloseUs());
          return &inserted.first->second;
        };
        for (const serve::PropertyPairSpec& pair : parsed->pairs) {
          lhs.push_back(features_of(pair.a));
          rhs.push_back(features_of(pair.b));
        }
      }
      std::vector<double> scores;
      {
        ScopedSpan span(tracer, kScore, root, i);
        auto scored = matcher.ScoreFeaturePairs(lhs, rhs);
        if (scored.ok()) scores = std::move(scored).value();
        out.score_ns += span.CloseUs() * 1e3;
      }
      {
        ScopedSpan span(tracer, kSerialize, root, i);
        const std::string reply = serve::ScoreResponse(parsed->id, scores);
        out.serialize_us.push_back(span.CloseUs());
      }
    }
    {
      ScopedSpan span(tracer, kDesign, kNoParent, i);
      const nn::Matrix design =
          matcher.pipeline().BuildDesignMatrix(lhs, rhs, columns);
      out.design_ns += span.CloseUs() * 1e3;
    }
    out.rows += static_cast<double>(lhs.size());
    ++out.replayed;
  }
  // HandleLine minus the time its decomposed parts took.
  const std::vector<uint64_t> covered = ChildCoveredNs(tracer.spans());
  std::map<uint64_t, double> parts_us;
  for (size_t s = 0; s < tracer.spans().size(); ++s) {
    if (tracer.spans()[s].name == kRequest) {
      parts_us[tracer.spans()[s].request] =
          static_cast<double>(covered[s]) / 1e3;
    }
  }
  for (size_t s = 0; s < tracer.spans().size(); ++s) {
    const Span& span = tracer.spans()[s];
    if (span.name != kHandle) continue;
    auto it = parts_us.find(span.request);
    if (it == parts_us.end()) continue;
    out.service_self_us.push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3 - it->second);
  }
  return out;
}

int RunServeScore(const RunOptions& run) {
  Verdict verdict;
  const HostFacts host = ReadHostFacts();
  const unsigned server_threads = std::max(1u, host.nproc - 1);
  const size_t connections = std::min<size_t>(host.nproc, 4);

  uint64_t start = NowNs();
  ServingFixture fixture;
  std::string error;
  if (!BuildServingFixture(run.seed, run.work_dir, &fixture, &error)) {
    std::fprintf(stderr, "fixture: %s\n", error.c_str());
    return 2;
  }
  TrafficMaker maker(fixture, run.seed);
  // The traced run's two extra untraced phases are capped so that it
  // stays within a few times the untraced run's length.
  const double side_s = std::min(run.seconds, kSidePhaseS);
  const Traffic warmup = maker.Make(run.seed, kWarmupStream, kWarmupS);
  const Traffic timed = maker.Make(run.seed, kTrafficStream, run.seconds);
  const Traffic baseline =
      run.trace ? maker.Make(run.seed, kBaselineStream, side_s) : Traffic{};
  const Traffic delayed_ack_traffic =
      run.trace ? maker.Make(run.seed, kDelayedAckStream, side_s) : Traffic{};
  Say("fixture: " + std::to_string(fixture.catalog.property_count()) +
      " catalog properties, " + std::to_string(timed.lines.size()) +
      " timed requests rendered in " +
      std::to_string(Seconds(NowNs() - start)) + " s");

  std::vector<std::string> args = {"--model",      fixture.model_path,
                                   "--index-data", fixture.catalog_path,
                                   "--blocking",   kServeBlocking,
                                   "--threads",
                                   std::to_string(server_threads)};
  for (const std::string& flag : EmbeddingFlags(fixture.embedding)) {
    args.push_back(flag);
  }

  // Set-up: exec to ready, several launches; the last one serves.
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>();
  for (int i = 0; i < (run.trace ? 1 : kSetupRepeats); ++i) {
    if (i > 0) {
      server->Stop();
      server = std::make_unique<ServerProcess>();
    }
    if (!server->Start(run.leapme, args, &error)) {
      std::fprintf(stderr, "server: %s\n", error.c_str());
      return 2;
    }
    setups.push_back(server->setup_s());
  }

  LoadTarget target;
  target.port = server->port();
  target.connections = connections;
  PhaseResult warm = RunPhase(target, warmup);
  // Traced runs add two untraced phases: one from a client that keeps
  // the kernel's delayed ACKs (its excess over the other is the wire cost
  // of the server's Nagle writes), and the baseline the traced phase is
  // compared to.
  PhaseResult delayed_ack;
  PhaseResult base;
  if (run.trace) {
    target.quick_ack = false;
    delayed_ack = RunPhase(target, delayed_ack_traffic);
    target.quick_ack = true;
    base = RunPhase(target, baseline);
  }

  Tracer tracer(run.trace);
  if (run.trace) target.tracer = &tracer;
  const Stats before = ReadStats(server->port());
  const double cpu_before = ProcessCpuSeconds(server->pid());
  PhaseResult phase = RunPhase(target, timed);
  const double cpu_after = ProcessCpuSeconds(server->pid());
  const Stats after = ReadStats(server->port());
  const double hwm_kb = ProcessStatusField(server->pid(), "VmHWM");
  const double threads = ProcessStatusField(server->pid(), "Threads");
  if (!server->Stop()) verdict.Fail("server did not shut down cleanly");
  if (!before.ok || !after.ok) verdict.Fail("stats op failed");

  Say("host: cpu=\"" + host.cpu_model + "\" nproc=" +
      std::to_string(host.nproc) + " kernel=" + after.kernel +
      " server_threads=" + std::to_string(static_cast<int>(threads)) +
      " pool=" + std::to_string(server_threads) +
      " connections=" + std::to_string(connections) +
      " seed=" + std::to_string(run.seed));
  Say("warmup: " + warm.counts.ToString());
  if (run.trace) {
    Say("delayed-ack: " + delayed_ack.counts.ToString());
    Say("baseline: " + base.counts.ToString());
  }
  Say("timed: " + phase.counts.ToString());
  for (const PhaseResult* p : {&warm, &delayed_ack, &base, &phase}) {
    if (!p->load.error.empty()) verdict.Fail("generator: " + p->load.error);
  }

  // Correctness, outside the timed window.
  start = NowNs();
  ReferenceStack stack;
  if (!BuildReference(fixture, run.trace, &stack, &error)) {
    std::fprintf(stderr, "reference: %s\n", error.c_str());
    return 2;
  }
  const core::LeapmeMatcher& matcher = stack.registry->Acquire()->matcher();
  CheckPhase(matcher, fixture, timed, phase, verdict);
  CheckPhase(matcher, fixture, warmup, warm, verdict);
  if (run.trace) {
    CheckPhase(matcher, fixture, baseline, base, verdict);
    CheckPhase(matcher, fixture, delayed_ack_traffic, delayed_ack, verdict);
  }
  Say("checked every reply against the in-process stack in " +
      std::to_string(Seconds(NowNs() - start)) + " s");
  verdict.attempted = phase.counts.sent;
  verdict.failed = phase.counts.failed();
  if (phase.counts.sent == 0) verdict.Fail("no requests were sent");

  if (!run.trace) {
    const std::vector<double> latencies = LatenciesMs(phase);
    const Quality quality = ScoreQuality(fixture, timed, phase);
    EndToEnd e;
    e.setup_s = Quantile(setups, 0.5);
    e.p50_ms = Quantile(latencies, 0.5);
    e.p90_ms = Quantile(latencies, 0.9);
    size_t within = 0;
    for (double latency : latencies) within += latency <= kScoreSloMs;
    e.slo_frac = Ratio(static_cast<double>(within),
                       static_cast<double>(phase.counts.sent));
    e.pairs_per_s = Ratio(static_cast<double>(phase.pairs_ok),
                          Seconds(phase.load.elapsed_ns));
    e.cpu_us_per_pair = Ratio((cpu_after - cpu_before) * 1e6,
                              static_cast<double>(phase.pairs_ok));
    e.peak_rss_mb = hwm_kb / 1024.0;
    e.recall_at_k = Ratio(static_cast<double>(quality.recall_hits),
                          static_cast<double>(quality.recall_queries));
    e.f1 = F1(quality.tp, quality.fp, quality.fn);
    e.completeness = Ratio(static_cast<double>(quality.true_pairs_ok),
                           static_cast<double>(quality.true_pairs));
    std::string line = "slo: " + std::to_string(kScoreSloMs) + " ms; setups:";
    for (double v : setups) line += " " + std::to_string(v);
    Say(line);
    return Finish(verdict, EndToEndMetrics(e));
  }

  // Traced run: per-layer metrics.
  LayerValues v;
  const LagSummary lag = SummarizeLag(phase.load.records);
  v.late_frac = lag.late_frac;
  v.max_lag_ms = lag.max_lag_ms;
  const double requests =
      after.Get("requests") - before.Get("requests");
  v.wakeups_per_req =
      Ratio(after.Get("epoll_wakeups") - before.Get("epoll_wakeups"),
            requests);
  v.threads = threads;
  v.batch_pairs_mean =
      Ratio(after.Get("pairs_scored") - before.Get("pairs_scored"),
            after.Get("batches") - before.Get("batches"));
  v.server_p50_us = after.Get("latency_p50_us");
  v.shed_frac = Ratio(after.Get("rejected_overload") -
                          before.Get("rejected_overload") +
                          after.Get("deadline_exceeded") -
                          before.Get("deadline_exceeded"),
                      requests);
  const auto cache = [&](const std::string& prefix, double* hit_ratio,
                         double* evictions_per_req) {
    const double hits =
        after.Get(prefix + "_cache_hits") - before.Get(prefix + "_cache_hits");
    const double misses = after.Get(prefix + "_cache_misses") -
                          before.Get(prefix + "_cache_misses");
    *hit_ratio = Ratio(hits, hits + misses);
    *evictions_per_req = Ratio(after.Get(prefix + "_cache_evictions") -
                                   before.Get(prefix + "_cache_evictions"),
                               requests);
  };
  cache("property", &v.property_hit_ratio, &v.property_evictions_per_req);
  cache("embedding", &v.embedding_hit_ratio, &v.embedding_evictions_per_req);
  for (const std::string& stage : StageNames()) {
    const auto delta = [&](const std::map<std::string, double>& a,
                           const std::map<std::string, double>& b) {
      auto x = a.find(stage);
      auto y = b.find(stage);
      return (x == a.end() ? 0.0 : x->second) -
             (y == b.end() ? 0.0 : y->second);
    };
    v.stage_property_ns[stage] =
        Ratio(delta(after.stage_property_ns, before.stage_property_ns),
              delta(after.stage_property_calls, before.stage_property_calls));
    v.stage_pair_ns[stage] =
        Ratio(delta(after.stage_pair_ns, before.stage_pair_ns),
              delta(after.stage_pair_calls, before.stage_pair_calls));
  }
  v.train_s = fixture.fit_s - fixture.fit_features_s;
  v.load_s = stack.load_s;
  v.attach_s = stack.attach_s - stack.index_build_s;
  v.index_build_s = stack.index_build_s;
  v.overhead_p50_ms = P50Ms(phase) - P50Ms(base);
  v.ack_wait_ms = P50Ms(delayed_ack) - P50Ms(base);

  const ReplayOutcome replay = Replay(stack, timed, tracer);
  // TCP round trip (send to reply) minus in-process HandleLine, per line.
  std::vector<double> reactor_self;
  std::vector<double> bytes;
  for (size_t i = 0; i < phase.load.records.size(); ++i) {
    const RequestRecord& r = phase.load.records[i];
    bytes.push_back(static_cast<double>(timed.lines[r.line].size() +
                                        phase.load.replies[i].size() + 1));
    if (r.line < replay.handle_line_us.size() && r.replied) {
      reactor_self.push_back(static_cast<double>(r.done_ns - r.sent_ns) /
                                 1e3 -
                             replay.handle_line_us[r.line]);
    }
  }
  v.reactor_self_us = Quantile(reactor_self, 0.5);
  v.service_self_us = Quantile(replay.service_self_us, 0.5);
  v.parse_us = Mean(replay.parse_us);
  v.serialize_us = Mean(replay.serialize_us);
  v.bytes_per_req = Mean(bytes);
  v.property_us = Mean(replay.property_us);
  v.pair_ns = Ratio(replay.design_ns, replay.rows);
  v.infer_ns = Ratio(replay.score_ns - replay.design_ns, replay.rows);
  Say("replayed " + std::to_string(replay.replayed) +
      " requests in-process; " + std::to_string(tracer.spans().size()) +
      " spans");
  const std::string trace_path = run.work_dir + "/spans-serve-score.tsv";
  if (tracer.WriteTsv(trace_path)) Say("spans written to " + trace_path);
  return Finish(verdict, LayerMetrics(v));
}

// ---------------------------------------------------------------------------
// offline-match

int RunOffline(const RunOptions& run) {
  Verdict verdict;
  const HostFacts host = ReadHostFacts();
  OfflineFixture fixture;
  std::string error;
  if (!BuildOfflineFixture(run.seed, run.work_dir, &fixture, &error)) {
    std::fprintf(stderr, "fixture: %s\n", error.c_str());
    return 2;
  }
  auto embeddings = BuildEmbeddings(fixture.embedding);
  Tracer tracer(run.trace);
  const uint32_t kLoad = tracer.Intern("data.read_dataset_tsv");
  const uint32_t kFit = tracer.Intern("core.fit");
  const uint32_t kCandidates = tracer.Intern("blocking.candidates");
  const uint32_t kScoreCandidates = tracer.Intern("core.score_candidates");

  // Set-up: ReadDatasetTsv + Fit, several times; the last matcher scores.
  std::vector<double> setups, loads, fits;
  data::Dataset dataset("");
  data::SourceSplit split;
  std::vector<data::LabeledPair> training;
  std::unique_ptr<core::LeapmeMatcher> matcher;
  for (int i = 0; i < kSetupRepeats; ++i) {
    uint64_t start = NowNs();
    {
      ScopedSpan span(tracer, kLoad, kNoParent, i);
      auto read = data::ReadDatasetTsv(fixture.dataset_path);
      if (!read.ok()) {
        std::fprintf(stderr, "read: %s\n", read.status().ToString().c_str());
        return 2;
      }
      dataset = std::move(read).value();
    }
    const double load_s = Seconds(NowNs() - start);
    Rng rng(fixture.pair_seed);
    split = data::SplitSources(dataset, 0.8, rng);
    auto pairs = data::BuildTrainingPairs(dataset, split.train_sources, 2.0,
                                          rng);
    if (!pairs.ok()) {
      std::fprintf(stderr, "pairs: %s\n", pairs.status().ToString().c_str());
      return 2;
    }
    training = std::move(pairs).value();
    core::LeapmeOptions options;
    options.threads = kOfflineThreads;
    options.seed = fixture.pair_seed;
    matcher =
        std::make_unique<core::LeapmeMatcher>(embeddings.get(), options);
    start = NowNs();
    Status status;
    {
      ScopedSpan span(tracer, kFit, kNoParent, i);
      status = matcher->Fit(dataset, training);
    }
    const double fit_s = Seconds(NowNs() - start);
    if (!status.ok()) {
      std::fprintf(stderr, "fit: %s\n", status.ToString().c_str());
      return 2;
    }
    loads.push_back(load_s);
    fits.push_back(fit_s);
    setups.push_back(load_s + fit_s);
  }
  auto pipeline =
      blocking::CandidatePipeline::Parse(kOfflineBlocking, embeddings.get());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "blocking: %s\n",
                 pipeline.status().ToString().c_str());
    return 2;
  }

  // Warm-up pass, then passes until the timed phase is over.
  auto first = matcher->ScoreCandidates(dataset, **pipeline);
  if (!first.ok()) {
    std::fprintf(stderr, "score: %s\n", first.status().ToString().c_str());
    return 2;
  }
  const auto timed_passes = [&](bool traced, std::vector<double>* pass_ms,
                                uint64_t* pairs) {
    rusage usage_before = {};
    ::getrusage(RUSAGE_SELF, &usage_before);
    const uint64_t phase_start = NowNs();
    uint64_t pass = 0;
    while (Seconds(NowNs() - phase_start) < run.seconds) {
      const uint64_t start = NowNs();
      StatusOr<core::BlockedScores> scored = [&] {
        if (!traced) return matcher->ScoreCandidates(dataset, **pipeline);
        ScopedSpan span(tracer, kScoreCandidates, kNoParent, 1000 + pass);
        return matcher->ScoreCandidates(dataset, **pipeline);
      }();
      pass_ms->push_back(static_cast<double>(NowNs() - start) / 1e6);
      ++pass;
      verdict.attempted += 1;
      if (!scored.ok()) {
        verdict.failed += 1;
        continue;
      }
      *pairs += scored->candidates.size();
      // Every pass must reproduce the warm-up pass bit for bit.
      bool same = scored->candidates == first->candidates &&
                  scored->scores.size() == first->scores.size();
      for (size_t i = 0; same && i < scored->scores.size(); ++i) {
        same = SameBits(scored->scores[i], first->scores[i]) &&
               std::isfinite(scored->scores[i]);
      }
      if (!same) verdict.Fail("pass " + std::to_string(pass) +
                              " differs from the warm-up pass");
    }
    rusage usage_after = {};
    ::getrusage(RUSAGE_SELF, &usage_after);
    const auto cpu = [](const rusage& u) {
      return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) /
                 1e6;
    };
    return cpu(usage_after) - cpu(usage_before);
  };
  std::vector<double> pass_ms;
  uint64_t pairs = 0;
  const double cpu_s = timed_passes(false, &pass_ms, &pairs);
  double total_ms = std::accumulate(pass_ms.begin(), pass_ms.end(), 0.0);

  Say("host: cpu=\"" + host.cpu_model + "\" nproc=" +
      std::to_string(host.nproc) + " kernel=" +
      std::string(kernels::ActiveKernelName()) +
      " threads=" + std::to_string(kOfflineThreads) +
      " seed=" + std::to_string(run.seed));
  Say("dataset: " + std::to_string(dataset.property_count()) +
      " properties, " + std::to_string(dataset.source_count()) +
      " sources, " + std::to_string(training.size()) + " training pairs, " +
      std::to_string(first->candidates.size()) + " candidates per pass, " +
      std::to_string(pass_ms.size()) + " passes");

  // Held-out quality from the (checked) warm-up pass: test pairs the
  // blocker dropped count as predicted non-matches.
  std::vector<char> is_train(dataset.source_count(), 0);
  for (data::SourceId s : split.train_sources) is_train[s] = 1;
  std::map<std::pair<PropertyId, PropertyId>, double> scored;
  for (size_t i = 0; i < first->candidates.size(); ++i) {
    const auto& pair = first->candidates[i];
    scored[{std::min(pair.a, pair.b), std::max(pair.a, pair.b)}] =
        first->scores[i];
  }
  uint64_t tp = 0, fp = 0, fn = 0, true_total = 0, true_kept = 0;
  // Per held-out property: the best-scored candidates, for recall@k.
  std::map<PropertyId, std::vector<std::pair<double, bool>>> ranked;
  for (const data::LabeledPair& test :
       data::BuildTestPairs(dataset, split.train_sources)) {
    const PropertyId a = std::min(test.pair.a, test.pair.b);
    const PropertyId b = std::max(test.pair.a, test.pair.b);
    auto it = scored.find({a, b});
    const bool kept = it != scored.end();
    const bool predicted = kept && it->second >= 0.5;
    const bool is_true = test.label != 0;
    tp += predicted && is_true;
    fp += predicted && !is_true;
    fn += !predicted && is_true;
    true_total += is_true;
    true_kept += is_true && kept;
    if (kept) {
      for (PropertyId side : {a, b}) {
        if (!is_train[dataset.property(side).source]) {
          ranked[side].emplace_back(it->second, is_true);
        }
      }
    }
  }
  uint64_t recall_queries = 0, recall_hits = 0;
  for (PropertyId id = 0; id < dataset.property_count(); ++id) {
    if (is_train[dataset.property(id).source]) continue;
    bool has_true = false;
    for (PropertyId other = 0; other < dataset.property_count(); ++other) {
      if (other != id && dataset.IsMatch(id, other)) {
        has_true = true;
        break;
      }
    }
    if (!has_true) continue;
    ++recall_queries;
    auto& list = ranked[id];
    const size_t keep = std::min(kOfflineK, list.size());
    std::partial_sort(list.begin(), list.begin() + static_cast<ptrdiff_t>(keep),
                      list.end(), [](const auto& x, const auto& y) {
                        return x.first > y.first;
                      });
    for (size_t i = 0; i < keep; ++i) {
      if (list[i].second) {
        ++recall_hits;
        break;
      }
    }
  }

  if (!run.trace) {
    EndToEnd e;
    e.setup_s = Quantile(setups, 0.5);
    e.p50_ms = Quantile(pass_ms, 0.5);
    e.p90_ms = Quantile(pass_ms, 0.9);
    size_t within = 0;
    for (double ms : pass_ms) within += ms <= kOfflineSloMs;
    e.slo_frac = Ratio(static_cast<double>(within),
                       static_cast<double>(pass_ms.size()));
    e.pairs_per_s = Ratio(static_cast<double>(pairs), total_ms / 1e3);
    e.cpu_us_per_pair = Ratio(cpu_s * 1e6, static_cast<double>(pairs));
    rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    e.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    e.recall_at_k = Ratio(static_cast<double>(recall_hits),
                          static_cast<double>(recall_queries));
    e.f1 = F1(tp, fp, fn);
    e.completeness = Ratio(static_cast<double>(true_kept),
                           static_cast<double>(true_total));
    return Finish(verdict, EndToEndMetrics(e));
  }

  // Traced run: the same passes with spans, then the layer replays.
  LayerValues v;
  const std::vector<features::StageTiming> stages_before =
      matcher->pipeline().StageTimings();
  std::vector<double> traced_ms;
  uint64_t traced_pairs = 0;
  timed_passes(true, &traced_ms, &traced_pairs);
  const std::vector<features::StageTiming> stages_after =
      matcher->pipeline().StageTimings();
  for (size_t s = 0; s < stages_after.size(); ++s) {
    const features::StageTiming& a = stages_after[s];
    const features::StageTiming& b = stages_before[s];
    v.stage_property_ns[a.name] =
        Ratio(static_cast<double>(a.property_ns - b.property_ns),
              static_cast<double>(a.property_calls - b.property_calls));
    v.stage_pair_ns[a.name] =
        Ratio(static_cast<double>(a.pair_ns - b.pair_ns),
              static_cast<double>(a.pair_calls - b.pair_calls));
  }
  v.overhead_p50_ms = Quantile(traced_ms, 0.5) - Quantile(pass_ms, 0.5);
  v.load_s = Quantile(loads, 0.5);
  v.train_s =
      Quantile(fits, 0.5) - ReplayFitFeatures(*matcher, dataset, training);
  {
    const uint64_t start = NowNs();
    std::vector<data::PropertyPair> candidates;
    {
      ScopedSpan span(tracer, kCandidates, kNoParent, 2000);
      auto blocked = (*pipeline)->Candidates(dataset);
      if (blocked.ok()) candidates = std::move(blocked).value();
    }
    v.candidates_s = Seconds(NowNs() - start);
    v.reduction = Ratio(static_cast<double>(candidates.size()),
                        static_cast<double>(
                            dataset.AllCrossSourcePairs().size()));
    // Design matrix vs the whole scorer on the same candidates.
    std::vector<const features::PropertyFeatures*> lhs, rhs;
    for (const data::PropertyPair& pair : candidates) {
      lhs.push_back(&matcher->property_features(pair.a));
      rhs.push_back(&matcher->property_features(pair.b));
    }
    uint64_t t = NowNs();
    const nn::Matrix design = matcher->pipeline().BuildDesignMatrix(
        lhs, rhs, DesignColumns(*matcher), kOfflineThreads);
    const double design_ns = static_cast<double>(NowNs() - t);
    t = NowNs();
    auto scores = matcher->ScoreFeaturePairs(lhs, rhs);
    const double score_ns = static_cast<double>(NowNs() - t);
    if (!scores.ok()) verdict.Fail("ScoreFeaturePairs failed");
    const double rows = static_cast<double>(lhs.size());
    v.pair_ns = Ratio(design_ns, rows);
    v.infer_ns = Ratio(score_ns - design_ns, rows);
    (void)design;
  }
  {
    const uint64_t start = NowNs();
    for (PropertyId id = 0; id < dataset.property_count(); ++id) {
      const serve::PropertySpec spec = SpecOf(dataset, id);
      (void)matcher->ComputePropertyFeatures(spec.name, spec.values);
    }
    v.property_us = Ratio(static_cast<double>(NowNs() - start) / 1e3,
                          static_cast<double>(dataset.property_count()));
  }
  const std::string trace_path = run.work_dir + "/spans-offline-match.tsv";
  if (tracer.WriteTsv(trace_path)) Say("spans written to " + trace_path);
  return Finish(verdict, LayerMetrics(v));
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == kServeScore || name == "offline-match";
}

int RunWorkload(const RunOptions& options) {
  if (options.workload == kServeScore) return RunServeScore(options);
  return RunOffline(options);
}

}  // namespace perfbench
