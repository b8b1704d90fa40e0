#ifndef LEAPME_SERVE_PROTOCOL_H_
#define LEAPME_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status_or.h"

namespace leapme::serve {

/// The wire protocol is line-delimited JSON: one request object per line,
/// one response object per line, over a plain TCP connection.
///
/// Requests ("id" is optional and echoed back verbatim):
///   {"op":"ping","id":1}
///   {"op":"score","id":2,"pairs":[{"a":PROP,"b":PROP}, ...]}
///   {"op":"topk","id":3,"query":PROP,"candidates":[PROP,...],"k":5}
///   {"op":"index_match","id":5,"property":PROP,"k":5}
///   {"op":"stats","id":4}
///   {"op":"health","id":6}
///   {"op":"ready","id":7}
///   {"op":"reload","id":8,"model":"/path/to/model"}
/// where PROP = {"name":"megapixels","values":["10","12.1", ...]}.
///
/// index_match requires the server's catalog-index mode (`leapme serve
/// --index-data`): the service blocks `property` against the indexed
/// catalog and scores only the blocked candidates, instead of the client
/// shipping explicit pairs or candidate lists.
///
/// Responses:
///   {"id":1,"ok":true,"op":"ping"}
///   {"id":2,"ok":true,"op":"score","scores":[0.93, ...]}
///   {"id":3,"ok":true,"op":"topk","matches":[{"index":4,"score":0.93},...]}
///   {"id":5,"ok":true,"op":"index_match","candidates":17,
///    "blocking_us":42.0,"matches":[{"property":3,"name":"mp",
///    "source":"web1","score":0.93},...]}
///   {"id":4,"ok":true,"op":"stats","stats":{...}}
///   {"id":6,"ok":true,"op":"health","status":"serving","model_version":1}
///   {"id":7,"ok":true,"op":"ready","ready":true,"model_version":1}
///   {"id":8,"ok":true,"op":"reload","model_version":2,
///    "model_fingerprint":"lmf1-...","model_format_version":2,
///    "canary_pairs":64,"canary_divergence":0.0}
///   {"id":2,"ok":false,"error":{"code":"InvalidArgument","message":"..."}}
///
/// `health` answers on any serving process ("serving" flips to
/// "draining" once shutdown starts); `ready` is the load-balancer /
/// warmup gate — false while draining or while a reload is between
/// stages. `reload` runs the registry's staged admission pipeline on
/// "model" (omitted = re-read the serving generation's path); a rejected
/// candidate comes back as an ok:false error and leaves serving
/// untouched.
///
/// Scores are serialized with enough digits to parse back to the exact
/// same double, so wire scores are bit-identical to offline ScorePairs.

/// A property as supplied by a client: surface name + instance values.
struct PropertySpec {
  std::string name;
  std::vector<std::string> values;
};

struct PropertyPairSpec {
  PropertySpec a;
  PropertySpec b;
};

/// One top-k result: candidate index (into the request's candidate list)
/// and its match score.
struct MatchResult {
  size_t index = 0;
  double score = 0.0;
};

/// One index_match result: a catalog property (id plus its display
/// name/source for clients without the catalog) and its match score.
struct IndexMatchResult {
  uint64_t property = 0;
  std::string name;
  std::string source;
  double score = 0.0;
};

/// Everything an index_match response reports besides the matches:
/// how many catalog candidates the blocker produced and how long
/// candidate generation took (microseconds).
struct IndexMatchOutcome {
  std::vector<IndexMatchResult> matches;
  size_t candidate_count = 0;
  double blocking_us = 0.0;
};

enum class Op {
  kPing,
  kScore,
  kTopK,
  kIndexMatch,
  kStats,
  kHealth,
  kReady,
  kReload,
};

/// A parsed, validated request.
struct Request {
  Op op = Op::kPing;
  std::optional<int64_t> id;
  /// op == kScore
  std::vector<PropertyPairSpec> pairs;
  /// op == kTopK ("query") / kIndexMatch ("property")
  PropertySpec query;
  /// op == kTopK
  std::vector<PropertySpec> candidates;
  size_t k = 1;
  /// op == kReload: model file to admit ("" = reload the serving path).
  std::string model_path;
};

/// Cumulative per-blocker counters exposed in the "stats" op (mirrors
/// blocking::BlockerStats; redeclared here so the protocol layer stays
/// decoupled from the blocking headers).
struct BlockerStat {
  std::string name;
  uint64_t batch_calls = 0;
  uint64_t queries = 0;
  uint64_t candidates = 0;
  uint64_t total_ns = 0;
};

/// Serving-model identity carried by health/ready/reload responses
/// (mirrors the registry's ModelInfo; redeclared here so the protocol
/// layer stays decoupled from the registry headers).
struct ModelIdentity {
  uint64_t version = 0;
  std::string fingerprint;
  int format_version = 0;
};

/// Cumulative per-feature-stage timing exposed in the "stats" op
/// (mirrors features::StageTiming; redeclared here so the protocol layer
/// stays decoupled from the feature headers).
struct StageTimingStat {
  std::string name;
  int version = 0;
  uint64_t property_calls = 0;
  uint64_t property_ns = 0;
  uint64_t pair_calls = 0;
  uint64_t pair_ns = 0;
};

/// Counters exposed by the "stats" op. Filled by MatcherService::Snapshot
/// (scoring/batching/cache fields) and TcpServer (connection fields).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ping_requests = 0;
  uint64_t score_requests = 0;
  uint64_t topk_requests = 0;
  uint64_t index_requests = 0;
  uint64_t stats_requests = 0;
  /// health + ready + reload requests.
  uint64_t admin_requests = 0;
  uint64_t request_errors = 0;
  uint64_t pairs_scored = 0;
  uint64_t batches = 0;
  std::vector<uint64_t> batch_histogram;  // bucket i = sizes [2^i, 2^(i+1))
  std::vector<std::string> batch_histogram_labels;
  /// Cache observability (PR: sharded concurrent cache, DESIGN.md §17):
  /// hit/miss/eviction totals for the token-embedding and
  /// property-feature caches, the partition count (`cache_shards`), and
  /// each cache's worst-case probe length (max full-key comparisons any
  /// single lookup has done in any partition — creeping values flag
  /// degenerate buckets before they cost latency).
  uint64_t embedding_cache_hits = 0;
  uint64_t embedding_cache_misses = 0;
  uint64_t embedding_cache_evictions = 0;
  uint64_t embedding_cache_max_probe = 0;
  uint64_t property_cache_hits = 0;
  uint64_t property_cache_misses = 0;
  uint64_t property_cache_evictions = 0;
  uint64_t property_cache_max_probe = 0;
  uint64_t cache_shards = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  /// Overload / robustness counters (PR: fault injection + overload
  /// control). `connections_rejected` counts accepts turned away at the
  /// connection cap, `rejected_overload` pairs refused by the bounded
  /// admission queue, `deadline_exceeded` requests that ran out of budget
  /// anywhere on the read -> batch -> score -> write path,
  /// `degraded_responses` scored replies produced with embedding features
  /// masked after a failed lookup, and `faults_injected` fires of the
  /// process-wide FaultInjector (0 when disarmed).
  uint64_t connections_rejected = 0;
  uint64_t rejected_overload = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t degraded_responses = 0;
  uint64_t faults_injected = 0;
  /// Transport identity and reactor gauges. `io_backend` is the constant
  /// "epoll" (the only transport; kept so clients reading it still see
  /// it), `event_loop_threads` the reactor loop count (0 before a
  /// TcpServer attaches),
  /// `epoll_wakeups` cumulative epoll_wait returns across all
  /// loops, and `writable_backlog_bytes` the response bytes currently
  /// buffered across per-connection output queues waiting for writable
  /// sockets — the reactor-side analogue of queue_depth for the write
  /// path (a climbing value means peers are not keeping up with reads).
  std::string io_backend = "epoll";
  uint64_t event_loop_threads = 0;
  uint64_t epoll_wakeups = 0;
  uint64_t writable_backlog_bytes = 0;
  /// Micro-batch queue gauges sampled at stats time: pairs currently
  /// queued, and how long the oldest of them has been waiting (0 when
  /// the queue is empty). Together they separate a busy-but-draining
  /// queue (depth high, age low) from a stalled one (age climbing).
  uint64_t queue_depth = 0;
  uint64_t queue_age_us = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  uint64_t latency_samples = 0;
  /// Active kernel dispatch path ("scalar" or "avx2"); chosen once at
  /// startup (see common/kernels/kernels.h).
  std::string kernel_path;
  /// Per-stage feature timings of the matcher's pipeline, in stage
  /// composition order.
  std::vector<StageTimingStat> feature_stages;
  /// Catalog-index mode (`serve --index-data`): number of indexed catalog
  /// properties (0 when no catalog is attached), cumulative candidates
  /// produced by blocking across index_match requests, total time spent
  /// in candidate generation, and per-blocker counters of the attached
  /// pipeline.
  uint64_t catalog_properties = 0;
  uint64_t index_candidates = 0;
  double blocking_us_total = 0.0;
  std::vector<BlockerStat> blockers;
  /// Hot-reload observability (PR: versioned model registry, DESIGN.md
  /// §18). `model_version` is the serving generation (1 = startup model;
  /// a backwards jump means a rollback), `model_fingerprint` its feature
  /// schema, `model_format_version` the on-disk format it loaded from,
  /// `model_mtime` the model file's mtime at load (unix seconds, 0 for
  /// in-process models). `reloads_ok` counts completed swaps,
  /// `reloads_rejected` admissions that failed at any stage (load fault,
  /// validation, canary divergence, catalog rebuild, concurrent reload),
  /// `reloads_rolled_back` post-swap error-rate trips, and
  /// `canary_divergence` the max score delta the most recent canary
  /// measured.
  uint64_t model_version = 0;
  std::string model_fingerprint;
  uint64_t model_format_version = 0;
  uint64_t model_mtime = 0;
  uint64_t reloads_ok = 0;
  uint64_t reloads_rejected = 0;
  uint64_t reloads_rolled_back = 0;
  double canary_divergence = 0.0;
};

/// Limits enforced by ParseRequest, independent of transport limits.
struct ProtocolLimits {
  size_t max_pairs_per_request = 4096;
  size_t max_candidates_per_request = 65536;
  size_t max_values_per_property = 65536;
  size_t max_k = 4096;
};

/// Parses and validates one request line. Unknown ops, missing or
/// mistyped fields, unknown fields, and limit violations all come back
/// as InvalidArgument with a message naming the offending field.
StatusOr<Request> ParseRequest(std::string_view line,
                               const ProtocolLimits& limits = {});

/// Response serializers; each returns a single line without the trailing
/// '\n' (the transport appends it).
///
/// `degraded` (score/topk) adds `"degraded":true` to the response: the
/// scores are real but were computed with embedding features masked after
/// a failed lookup. `retry_after_ms` (error) adds `"retry_after_ms":N`
/// inside the error object — the server's backoff hint on Unavailable /
/// ResourceExhausted replies; well-behaved clients wait at least that
/// long before retrying.
std::string PingResponse(const std::optional<int64_t>& id);
std::string ScoreResponse(const std::optional<int64_t>& id,
                          const std::vector<double>& scores,
                          bool degraded = false);
std::string TopKResponse(const std::optional<int64_t>& id,
                         const std::vector<MatchResult>& matches,
                         bool degraded = false);
std::string IndexMatchResponse(const std::optional<int64_t>& id,
                               const IndexMatchOutcome& outcome,
                               bool degraded = false);
std::string StatsResponse(const std::optional<int64_t>& id,
                          const ServiceStats& stats);
std::string HealthResponse(const std::optional<int64_t>& id, bool serving,
                           const ModelIdentity& model);
std::string ReadyResponse(const std::optional<int64_t>& id, bool ready,
                          const ModelIdentity& model);
std::string ReloadResponse(const std::optional<int64_t>& id,
                           const ModelIdentity& model,
                           double canary_divergence, uint64_t canary_pairs);
std::string ErrorResponse(const std::optional<int64_t>& id,
                          const Status& status,
                          uint64_t retry_after_ms = 0);

}  // namespace leapme::serve

#endif  // LEAPME_SERVE_PROTOCOL_H_
