// Load generator and correctness checker for a running `leapme serve`.
//
// Closed-loop mode (default): opens --clients concurrent connections,
// each sending --requests score requests of --pairs property pairs drawn
// from a dataset (--data TSV, or a synthetic catalog generated from
// --domain/--sources/--entities). Every response is validated: ok:true,
// echoed id, one score per pair, all scores finite. With --model FILE
// the same model is additionally loaded in-process and every wire score
// must be bit-identical to the offline ScorePairsOn result (the
// embedding flags must match the server's: --domain/--emb-dim/--seed or
// --embeddings).
//
// Open-loop mode (--open-loop-rps R [--duration S]): instead of a fixed
// request count per client, requests are fired from a precomputed
// Poisson arrival schedule at R requests/second for S seconds,
// regardless of how fast the server answers. There are no retries —
// every scheduled arrival is one attempt, classified as ok / degraded /
// shed / deadline / error — and latency is reported against both the
// send-start clock and the schedule's intended-start clock, so a server
// that stalls shows the backlog in the intended percentiles instead of
// silently pausing the generator (coordinated omission; DESIGN.md §15).
//
// Prints a summary with throughput and latency percentiles, then the
// server's own stats line. Exits non-zero on any protocol error or
// score mismatch (in open-loop mode, shed / deadline / transport-error
// outcomes are expected under overload and reported but do not fail the
// run; only malformed replies and score mismatches do).
//
// Closed-loop mode is overload-aware: a reply typed Unavailable /
// ResourceExhausted / DeadlineExceeded — or a lost connection — is
// retried with jittered exponential backoff up to --retry-budget
// attempts per request, honoring the server's retry_after_ms hint when
// one is present. A response tagged "degraded":true (scored with
// embedding features masked after an injected lookup fault) is accepted
// and counted but exempted from the bit-exact offline comparison. This
// makes the tool double as the fault-storm soak driver: under an armed
// LEAPME_FAULTS server, a run passes iff every request eventually
// resolves to a scored, degraded, or typed-error reply — never a hang
// or a malformed line.
//
// Usage:
//   serve_client --port N [--host 127.0.0.1] [--clients 8]
//                [--requests 20] [--pairs 8] [--model FILE]
//                [--data FILE | --domain tvs] [--sources 4]
//                [--entities 8] [--seed 7] [--emb-dim 64]
//                [--embeddings FILE] [--retry-budget 4]
//                [--open-loop-rps R] [--duration SECONDS]
//                [--ready-timeout-ms 10000] [--reload-interval-ms 0]
//
// Startup gates on the server's `ready` op (with backoff) instead of
// sleeping: load begins only once the server reports a serving model.
// With --reload-interval-ms N a side thread fires `reload` ops at that
// cadence while the load runs — the hot-reload chaos driver. Reload
// rejections are expected under fault storms and never fail the run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/tsv_io.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "embedding/text_embedding_file.h"
#include "core/leapme.h"
#include "serve/json.h"
#include "tools/line_client.h"
#include "workload/arrival.h"
#include "workload/open_loop.h"

namespace {

using namespace leapme;
using tools::LineClient;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "serve_client: %s\n", message.c_str());
  std::exit(1);
}

/// `--key value` / `--key=value` argument list; no positional arguments.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) Die("unexpected argument '" + token + "'");
    token.erase(0, 2);
    const size_t equals = token.find('=');
    if (equals != std::string::npos) {
      args[token.substr(0, equals)] = token.substr(equals + 1);
    } else if (i + 1 < argc) {
      args[token] = argv[++i];
    } else {
      Die("--" + token + " needs a value");
    }
  }
  return args;
}

int64_t ArgInt(const std::map<std::string, std::string>& args,
               const std::string& key, int64_t fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    Die("--" + key + " must be an integer, got '" + it->second + "'");
  }
  return parsed;
}

double ArgDouble(const std::map<std::string, std::string>& args,
                 const std::string& key, double fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    Die("--" + key + " must be a number, got '" + it->second + "'");
  }
  return parsed;
}

std::string SpecJson(const data::Dataset& dataset, data::PropertyId id) {
  std::string out = "{\"name\":";
  serve::AppendJsonString(&out, dataset.property(id).name);
  out += ",\"values\":[";
  const auto& instances = dataset.instances(id);
  for (size_t i = 0; i < instances.size(); ++i) {
    if (i > 0) out += ',';
    serve::AppendJsonString(&out, instances[i].value);
  }
  out += "]}";
  return out;
}

struct SharedState {
  std::string host;
  int port = 0;
  size_t requests_per_client = 0;
  size_t pairs_per_request = 0;
  size_t retry_budget = 4;  // extra attempts per request
  const data::Dataset* dataset = nullptr;
  std::vector<data::PropertyPair> pairs;
  std::vector<double> expected;  // empty without --model
  LatencyRecorder latency;
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> degraded{0};
};

/// Typed error codes the serve retry contract marks as transient: the
/// server refused or timed out, but the same request may succeed later.
bool RetryableCode(const std::string& code) {
  return code == "Unavailable" || code == "ResourceExhausted" ||
         code == "DeadlineExceeded";
}

/// The deterministic pair-list offset request (client, request) scores,
/// so the expected scores are known by offset in both modes.
size_t WindowStart(const SharedState& state, size_t client_index,
                   size_t request_index) {
  return (client_index * 131 + request_index * state.pairs_per_request) %
         state.pairs.size();
}

std::string RequestLine(const SharedState& state, size_t client_index,
                        size_t request_index, int64_t id) {
  const size_t start = WindowStart(state, client_index, request_index);
  std::string line =
      "{\"op\":\"score\",\"id\":" + std::to_string(id) + ",\"pairs\":[";
  for (size_t i = 0; i < state.pairs_per_request; ++i) {
    const auto& pair = state.pairs[(start + i) % state.pairs.size()];
    if (i > 0) line += ',';
    line += "{\"a\":" + SpecJson(*state.dataset, pair.a) +
            ",\"b\":" + SpecJson(*state.dataset, pair.b) + "}";
  }
  line += "]}";
  return line;
}

/// Validates a scored reply (shape, echoed id, per-pair scores, optional
/// bit-exact offline comparison), updating the shared counters. Returns
/// false when the reply is malformed or mismatched.
bool CheckScoredResponse(SharedState& state, size_t client_index,
                         size_t request_index, int64_t id,
                         const std::string& response) {
  auto parsed = serve::JsonValue::Parse(response);
  const serve::JsonValue* ok = parsed.ok() ? parsed->Find("ok") : nullptr;
  const serve::JsonValue* scores =
      parsed.ok() ? parsed->Find("scores") : nullptr;
  const serve::JsonValue* echoed_id =
      parsed.ok() ? parsed->Find("id") : nullptr;
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool() ||
      scores == nullptr || !scores->is_array() ||
      scores->AsArray().size() != state.pairs_per_request ||
      echoed_id == nullptr || !echoed_id->is_number() ||
      echoed_id->AsNumber() != static_cast<double>(id)) {
    std::fprintf(stderr, "client %zu: bad response: %s\n", client_index,
                 response.c_str());
    state.errors.fetch_add(1);
    return false;
  }
  // A degraded response was scored with embedding features masked after
  // an injected lookup failure: the scores are finite and well formed
  // but intentionally differ from the full model, so they are exempt
  // from the bit-exact offline comparison.
  const serve::JsonValue* degraded_tag = parsed->Find("degraded");
  const bool degraded = degraded_tag != nullptr && degraded_tag->is_bool() &&
                        degraded_tag->AsBool();
  if (degraded) state.degraded.fetch_add(1);
  const size_t start = WindowStart(state, client_index, request_index);
  bool all_match = true;
  for (size_t i = 0; i < state.pairs_per_request; ++i) {
    const serve::JsonValue& score = scores->AsArray()[i];
    if (!score.is_number()) {
      all_match = false;
      break;
    }
    if (degraded || state.expected.empty()) continue;
    const double expected =
        state.expected[(start + i) % state.pairs.size()];
    if (score.AsNumber() != expected) {
      std::fprintf(stderr,
                   "client %zu: score mismatch at pair %zu: wire %.17g "
                   "!= offline %.17g\n",
                   client_index, (start + i) % state.pairs.size(),
                   score.AsNumber(), expected);
      all_match = false;
    }
  }
  if (all_match) {
    state.requests_ok.fetch_add(1);
  } else {
    state.mismatches.fetch_add(1);
  }
  return all_match;
}

/// One closed-loop client connection's worth of load; latencies (end to
/// end, including any retries and backoff) land in `state.latency`.
void RunClient(SharedState& state, size_t client_index) {
  auto client = std::make_unique<LineClient>(state.host, state.port);

  // Deterministic per-client jitter source (xorshift64*), so runs are
  // reproducible while clients still decorrelate their retry storms.
  uint64_t rng = 0x9e3779b97f4a7c15ull ^ (client_index + 1);
  const auto jitter = [&rng]() {  // uniform in [0.5, 1.5)
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return 0.5 + static_cast<double>((rng * 0x2545f4914f6cdd1dull) >> 11) /
                     9007199254740992.0;
  };
  // Jittered exponential backoff, floored at the server's retry_after_ms
  // hint when the reply carried one.
  const auto backoff = [&](size_t attempt, uint64_t hint_ms) {
    const double exponential =
        std::min(1000.0, 10.0 * static_cast<double>(
                             uint64_t{1} << std::min<size_t>(attempt, 10)));
    const double delay_ms =
        std::max(static_cast<double>(hint_ms), exponential * jitter());
    state.retries.fetch_add(1);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  };

  for (size_t request = 0; request < state.requests_per_client; ++request) {
    const int64_t id =
        static_cast<int64_t>(client_index * 100000 + request);
    const std::string line = RequestLine(state, client_index, request, id);

    const auto begin = std::chrono::steady_clock::now();
    std::string response;
    bool answered = false;
    bool fatal = false;
    for (size_t attempt = 0; attempt <= state.retry_budget; ++attempt) {
      if (client == nullptr || !client->connected()) {
        client = std::make_unique<LineClient>(state.host, state.port);
        if (!client->connected()) {
          client.reset();
          if (attempt < state.retry_budget) backoff(attempt, 0);
          continue;
        }
      }
      if (!client->SendLine(line) || !client->ReadLine(&response)) {
        // Connection lost mid-request (server deadline close, injected
        // read fault, ...). The request may have been dropped before
        // scoring — retry it on a fresh connection.
        client.reset();
        if (attempt < state.retry_budget) backoff(attempt, 0);
        continue;
      }
      auto parsed = serve::JsonValue::Parse(response);
      const serve::JsonValue* ok =
          parsed.ok() ? parsed->Find("ok") : nullptr;
      if (ok != nullptr && ok->is_bool() && !ok->AsBool()) {
        const serve::JsonValue* error = parsed->Find("error");
        const serve::JsonValue* code =
            error != nullptr && error->is_object() ? error->Find("code")
                                                   : nullptr;
        if (code != nullptr && code->is_string() &&
            RetryableCode(code->AsString())) {
          const serve::JsonValue* hint = error->Find("retry_after_ms");
          const uint64_t hint_ms =
              hint != nullptr && hint->is_number()
                  ? static_cast<uint64_t>(hint->AsNumber())
                  : 0;
          // The server may close after a typed rejection (deadline,
          // connection cap); probe cheaply by reconnecting next attempt
          // only if the send/read above fails.
          if (attempt < state.retry_budget) backoff(attempt, hint_ms);
          continue;
        }
        fatal = true;  // typed but non-retryable (InvalidArgument, ...)
      }
      answered = !fatal;
      break;
    }
    if (!answered) {
      std::fprintf(stderr, "client %zu: request %lld %s\n", client_index,
                   static_cast<long long>(id),
                   fatal ? ("failed: " + response).c_str()
                         : "exhausted its retry budget");
      state.errors.fetch_add(1);
      continue;
    }
    state.latency.RecordNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count()));
    CheckScoredResponse(state, client_index, request, id, response);
  }
}

void PrintSummaryLine(const char* label,
                      const LatencyRecorder::Summary& summary) {
  std::printf("%s p50=%.0fus p95=%.0fus p99=%.0fus p999=%.0fus "
              "max=%.0fus\n",
              label, summary.p50_us, summary.p95_us, summary.p99_us,
              summary.p999_us, summary.max_us);
}

void PrintServerStats(const SharedState& state) {
  LineClient stats_client(state.host, state.port);
  std::string stats_line;
  if (stats_client.connected() &&
      stats_client.SendLine("{\"op\":\"stats\"}") &&
      stats_client.ReadLine(&stats_line)) {
    std::printf("server stats: %s\n", stats_line.c_str());
  }
}

/// Open-loop run: fire the arrival schedule, one attempt per event, and
/// report both latency clocks. Returns the process exit code.
int RunOpenLoopMode(SharedState& state, size_t clients, double target_rps,
                    double duration_s, uint64_t seed) {
  workload::ArrivalOptions arrival;
  arrival.target_rps = target_rps;
  arrival.duration_s = duration_s;
  arrival.seed = seed;
  auto schedule = workload::ArrivalSchedule::Build(arrival);
  if (!schedule.ok()) Die(schedule.status().ToString());

  std::printf("serve_client: open loop, %.0f rps x %.1fs (%zu arrivals) "
              "over %zu client threads against %s:%d\n",
              target_rps, duration_s, schedule->size(), clients,
              state.host.c_str(), state.port);

  workload::OpenLoopResult result;
  workload::RunOpenLoop(
      *schedule, static_cast<unsigned>(clients),
      [&](size_t event) {
        thread_local std::unique_ptr<LineClient> client;
        if (client == nullptr || !client->connected()) {
          client = std::make_unique<LineClient>(state.host, state.port);
        }
        if (!client->connected()) return workload::Outcome::kError;
        const size_t client_index = event % clients;
        const int64_t id = static_cast<int64_t>(event);
        std::string response;
        if (!client->RoundTrip(RequestLine(state, client_index, event, id),
                               &response)) {
          client.reset();
          return workload::Outcome::kError;
        }
        auto parsed = serve::JsonValue::Parse(response);
        const serve::JsonValue* ok =
            parsed.ok() ? parsed->Find("ok") : nullptr;
        if (ok != nullptr && ok->is_bool() && !ok->AsBool()) {
          const serve::JsonValue* error = parsed->Find("error");
          const serve::JsonValue* code =
              error != nullptr && error->is_object() ? error->Find("code")
                                                     : nullptr;
          const std::string name =
              code != nullptr && code->is_string() ? code->AsString() : "";
          if (name == "Unavailable" || name == "ResourceExhausted") {
            return workload::Outcome::kShed;
          }
          if (name == "DeadlineExceeded") return workload::Outcome::kDeadline;
          return workload::Outcome::kError;
        }
        const serve::JsonValue* degraded_tag =
            parsed.ok() ? parsed->Find("degraded") : nullptr;
        const bool degraded = degraded_tag != nullptr &&
                              degraded_tag->is_bool() &&
                              degraded_tag->AsBool();
        if (!CheckScoredResponse(state, client_index, event, id, response)) {
          return workload::Outcome::kError;
        }
        return degraded ? workload::Outcome::kDegraded
                        : workload::Outcome::kOk;
      },
      &result);

  const double achieved_rps =
      result.elapsed_s > 0.0
          ? static_cast<double>(result.sent) / result.elapsed_s
          : 0.0;
  std::printf("sent=%llu ok=%llu degraded=%llu shed=%llu deadline=%llu "
              "errors=%llu late_starts=%llu achieved=%.0frps\n",
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(result.ok),
              static_cast<unsigned long long>(result.degraded),
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.deadline),
              static_cast<unsigned long long>(result.errors),
              static_cast<unsigned long long>(result.late_starts),
              achieved_rps);
  PrintSummaryLine("latency (service)  ", result.service.Snapshot());
  PrintSummaryLine("latency (intended) ", result.intended.Snapshot());
  PrintServerStats(state);

  // Under deliberate overload shed / deadline / dropped-connection
  // outcomes are the server doing its job; only malformed replies and
  // score mismatches fail the run.
  const uint64_t malformed = state.errors.load();
  const uint64_t mismatches = state.mismatches.load();
  if (malformed > 0 || mismatches > 0) {
    std::fprintf(stderr,
                 "serve_client: %llu malformed, %llu mismatched\n",
                 static_cast<unsigned long long>(malformed),
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (args.count("port") == 0) {
    Die("--port is required (see the usage comment at the top of "
        "tools/serve_client.cc)");
  }

  SharedState state;
  state.host = args.count("host") ? args.at("host") : "127.0.0.1";
  state.port = static_cast<int>(ArgInt(args, "port", 0));
  const size_t clients = static_cast<size_t>(ArgInt(args, "clients", 8));
  state.requests_per_client =
      static_cast<size_t>(ArgInt(args, "requests", 20));
  state.pairs_per_request = static_cast<size_t>(ArgInt(args, "pairs", 8));
  if (state.port <= 0 || clients == 0 || state.requests_per_client == 0 ||
      state.pairs_per_request == 0) {
    Die("--port/--clients/--requests/--pairs must be positive");
  }
  const int64_t retry_budget = ArgInt(args, "retry-budget", 4);
  if (retry_budget < 0 || retry_budget > 64) {
    Die("--retry-budget must be in [0, 64]");
  }
  state.retry_budget = static_cast<size_t>(retry_budget);
  const double open_loop_rps = ArgDouble(args, "open-loop-rps", 0.0);
  const double duration_s = ArgDouble(args, "duration", 5.0);
  if (args.count("open-loop-rps") &&
      (open_loop_rps <= 0.0 || duration_s <= 0.0)) {
    Die("--open-loop-rps and --duration must be positive");
  }

  // The request corpus: a real TSV dataset or a generated catalog.
  data::Dataset dataset("");
  if (args.count("data")) {
    auto read = data::ReadDatasetTsv(args.at("data"));
    if (!read.ok()) Die(read.status().ToString());
    dataset = std::move(*read);
  } else {
    const std::string domain_name =
        args.count("domain") ? args.at("domain") : "tvs";
    const data::DomainSpec* domain = nullptr;
    for (const data::DomainSpec* candidate : data::AllDomains()) {
      if (candidate->name == domain_name) domain = candidate;
    }
    if (domain == nullptr) Die("unknown --domain '" + domain_name + "'");
    data::GeneratorOptions generator;
    generator.num_sources = static_cast<size_t>(ArgInt(args, "sources", 4));
    generator.min_entities_per_source =
        static_cast<size_t>(ArgInt(args, "entities", 8));
    generator.max_entities_per_source = generator.min_entities_per_source;
    generator.seed = static_cast<uint64_t>(ArgInt(args, "seed", 7));
    auto generated = data::GenerateCatalog(*domain, generator);
    if (!generated.ok()) Die(generated.status().ToString());
    dataset = std::move(*generated);
  }
  state.dataset = &dataset;
  state.pairs = dataset.AllCrossSourcePairs();
  if (state.pairs.empty()) Die("dataset has no cross-source pairs");

  // Optional offline reference: load the same model the server serves
  // and precompute the expected score of every pair.
  std::unique_ptr<embedding::EmbeddingModel> model;
  if (args.count("model")) {
    if (args.count("embeddings")) {
      auto loaded = embedding::TextEmbeddingFile::Load(args.at("embeddings"));
      if (!loaded.ok()) Die(loaded.status().ToString());
      model = std::make_unique<embedding::TextEmbeddingFile>(
          std::move(*loaded));
    } else {
      const std::string domain_name =
          args.count("domain") ? args.at("domain") : "tvs";
      const data::DomainSpec* domain = nullptr;
      for (const data::DomainSpec* candidate : data::AllDomains()) {
        if (candidate->name == domain_name) domain = candidate;
      }
      if (domain == nullptr) Die("unknown --domain '" + domain_name + "'");
      embedding::SyntheticModelOptions options;
      options.dimension = static_cast<size_t>(ArgInt(args, "emb-dim", 64));
      options.seed = static_cast<uint64_t>(ArgInt(args, "seed", 7));
      options.oov_policy = embedding::OovPolicy::kHashedVector;
      auto built = embedding::SyntheticEmbeddingModel::Build(
          data::DomainClusters(*domain), options);
      if (!built.ok()) Die(built.status().ToString());
      model = std::make_unique<embedding::SyntheticEmbeddingModel>(
          std::move(*built));
    }
    auto matcher = core::LeapmeMatcher::LoadModel(model.get(),
                                                  args.at("model"));
    if (!matcher.ok()) Die(matcher.status().ToString());
    auto expected = matcher->ScorePairsOn(dataset, state.pairs);
    if (!expected.ok()) Die(expected.status().ToString());
    state.expected = std::move(*expected);
  }

  // Readiness gate: poll the `ready` op with backoff rather than
  // sleeping after connect — the listener being open does not mean a
  // model is serving (startup, drain, mid-swap).
  const int ready_timeout_ms =
      static_cast<int>(ArgInt(args, "ready-timeout-ms", 10000));
  if (!tools::WaitForServerReady(state.host, state.port, ready_timeout_ms)) {
    Die("server at " + state.host + ":" + std::to_string(state.port) +
        " did not report ready within " + std::to_string(ready_timeout_ms) +
        "ms");
  }

  // Optional hot-reload chaos driver: fire `reload` ops at a fixed
  // cadence for the whole run. Every reply must be well formed, but
  // rejections (fault storms, canary refusals, concurrent reloads) are
  // the server working as designed and never fail the client.
  const int64_t reload_interval_ms = ArgInt(args, "reload-interval-ms", 0);
  std::atomic<bool> reload_stop{false};
  std::atomic<uint64_t> reloads_ok{0};
  std::atomic<uint64_t> reloads_rejected{0};
  std::thread reloader;
  if (reload_interval_ms > 0) {
    reloader = std::thread([&] {
      std::unique_ptr<LineClient> client;
      int64_t id = 9000000;
      while (!reload_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(reload_interval_ms));
        if (reload_stop.load(std::memory_order_relaxed)) break;
        if (client == nullptr || !client->connected()) {
          client = std::make_unique<LineClient>(state.host, state.port);
          if (!client->connected()) {
            client.reset();
            continue;
          }
        }
        std::string response;
        if (!client->RoundTrip(
                "{\"op\":\"reload\",\"id\":" + std::to_string(++id) + "}",
                &response)) {
          client.reset();
          continue;
        }
        if (response.find("\"ok\":true") != std::string::npos) {
          reloads_ok.fetch_add(1);
        } else {
          reloads_rejected.fetch_add(1);
        }
      }
    });
  }
  const auto finish_reloader = [&] {
    if (!reloader.joinable()) return;
    reload_stop.store(true);
    reloader.join();
    std::printf("reloads driven: ok=%llu rejected=%llu\n",
                static_cast<unsigned long long>(reloads_ok.load()),
                static_cast<unsigned long long>(reloads_rejected.load()));
  };

  if (args.count("open-loop-rps")) {
    const int code =
        RunOpenLoopMode(state, clients, open_loop_rps, duration_s,
                        static_cast<uint64_t>(ArgInt(args, "seed", 7)));
    finish_reloader();
    return code;
  }

  std::printf("serve_client: %zu clients x %zu requests x %zu pairs "
              "against %s:%d (%zu distinct pairs%s)\n",
              clients, state.requests_per_client, state.pairs_per_request,
              state.host.c_str(), state.port, state.pairs.size(),
              state.expected.empty() ? ""
                                     : ", checking against offline scores");

  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&state, c] { RunClient(state, c); });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  finish_reloader();

  const uint64_t ok = state.requests_ok.load();
  const uint64_t errors = state.errors.load();
  const uint64_t mismatches = state.mismatches.load();
  const double pairs_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(ok * state.pairs_per_request) /
                            elapsed_s
                      : 0.0;
  std::printf("requests ok=%llu errors=%llu mismatches=%llu retries=%llu "
              "degraded=%llu\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(state.retries.load()),
              static_cast<unsigned long long>(state.degraded.load()));
  const LatencyRecorder::Summary summary =
      state.latency.Snapshot();
  std::printf("throughput %.0f pairs/s, latency p50=%.0fus p95=%.0fus "
              "p99=%.0fus p999=%.0fus\n",
              pairs_per_sec, summary.p50_us, summary.p95_us, summary.p99_us,
              summary.p999_us);

  // Ask the server how the run looked from its side.
  PrintServerStats(state);

  return (errors == 0 && mismatches == 0) ? 0 : 1;
}
