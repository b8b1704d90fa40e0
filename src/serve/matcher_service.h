#ifndef LEAPME_SERVE_MATCHER_SERVICE_H_
#define LEAPME_SERVE_MATCHER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cache/sharded_cache.h"
#include "common/deadline.h"
#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/status_or.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"

namespace leapme::serve {

struct ServiceOptions {
  /// Largest number of pairs scored in one DesignMatrix/Infer call.
  size_t max_batch = 256;
  /// Bound on the pairs admitted into the micro-batch queue. A request
  /// whose pairs would push the queue past this limit is refused with a
  /// typed ResourceExhausted (and counted in rejected_overload) instead
  /// of growing the queue without bound under overload. 0 = unbounded
  /// (the library default; `leapme serve` bounds it via --max-queue).
  size_t max_queue_pairs = 0;
};

/// A thread-safe online-matching session over the generations of a
/// ModelRegistry (a loaded one, or a fixed fitted matcher wrapped by
/// ModelRegistry::WrapExisting).
///
/// Every request acquires the serving ModelGeneration once at entry and
/// carries that shared_ptr through feature gathering, the micro-batch
/// queue, and scoring — a hot reload that lands mid-request is invisible
/// to it, and the old generation is freed when its last in-flight pair
/// completes (DESIGN.md §18).
///
/// Every request is admitted on the caller's thread and completed by a
/// single batcher thread, which scores whatever is queued as soon as it
/// is free, up to `max_batch` pairs per call. A batch drained across a
/// reload boundary may hold pairs from two generations; the batcher
/// groups rows by generation and issues one ScoreFeaturePairs call per
/// group, so batching stays invisible in the results — scores are
/// bit-identical to offline ScorePairs at any batch composition and any
/// reload schedule.
///
/// Two caches sit in front of each generation's matcher: its
/// CachingEmbeddingModel (token -> vector) and its own sharded
/// concurrent cache keyed by name + instance values holding finished
/// per-property feature vectors (a swapped-in model starts cold — it
/// must never serve features computed by its predecessor). Each
/// Score/TopK request gathers all its property features through one
/// batched, prefetch-ahead cache wave before its pairs enter the
/// micro-batch queue (DESIGN.md §17).
class MatcherService {
 public:
  /// Serves the generations of `registry`, which must be initialized
  /// (Init / WrapExisting) and outlive the service. Reload-capable when
  /// the registry has a Loader.
  explicit MatcherService(ModelRegistry* registry,
                          ServiceOptions options = {});

  /// Validated construction over an initialized registry (Init and
  /// WrapExisting already gated the model through ValidateServingModel).
  static StatusOr<std::unique_ptr<MatcherService>> Create(
      ModelRegistry* registry, ServiceOptions options = {});

  /// Drains outstanding work and stops the batcher thread.
  ~MatcherService();

  MatcherService(const MatcherService&) = delete;
  MatcherService& operator=(const MatcherService&) = delete;

  /// Scores each a/b pair; blocks until the micro-batcher has scored
  /// every pair of this request.
  StatusOr<std::vector<double>> Score(
      const std::vector<PropertyPairSpec>& pairs) {
    return Score(pairs, Deadline::Infinite(), nullptr);
  }

  /// Score with overload semantics: refuses admission past the queue
  /// bound (ResourceExhausted), gives up when `deadline` passes before
  /// the scores are ready (DeadlineExceeded), and — when an embedding
  /// lookup fails mid-request — still scores the affected pairs with
  /// embedding features masked, setting `*degraded` (may be null) so the
  /// transport can tag the response instead of failing the batch.
  StatusOr<std::vector<double>> Score(
      const std::vector<PropertyPairSpec>& pairs, Deadline deadline,
      bool* degraded);

  /// Scores `query` against every candidate and returns the k best
  /// (score descending, candidate index ascending on ties).
  StatusOr<std::vector<MatchResult>> TopK(
      const PropertySpec& query,
      const std::vector<PropertySpec>& candidates, size_t k) {
    return TopK(query, candidates, k, Deadline::Infinite(), nullptr);
  }

  /// TopK with the same overload semantics as the deadline Score.
  StatusOr<std::vector<MatchResult>> TopK(
      const PropertySpec& query,
      const std::vector<PropertySpec>& candidates, size_t k,
      Deadline deadline, bool* degraded);

  /// Full protocol dispatch for one request line: parse, execute,
  /// serialize, then run `done` exactly once with the response line,
  /// without its newline (protocol
  /// and execution errors become ok:false responses). `done` runs before
  /// Submit returns when the request ends on the calling thread (parse
  /// errors, ping/stats/health/ready, refused admission), else on the
  /// batcher, or on the service's reload thread for `reload`. A request
  /// that finishes after `deadline` gets a typed DeadlineExceeded.
  void Submit(std::string_view line, Deadline deadline,
              std::function<void(std::string)> done);

  /// Submit, waiting for the response.
  std::string HandleLine(std::string_view line) {
    return HandleLine(line, Deadline::Infinite());
  }

  /// HandleLine under a request deadline (started by the transport when
  /// the request's first bytes arrived). It gives up at the deadline with
  /// a typed DeadlineExceeded error response.
  std::string HandleLine(std::string_view line, Deadline deadline);

  /// Connection lifecycle hooks, called by the transport so connection
  /// counts show up in the "stats" op.
  void OnConnectionOpened() {
    connections_accepted_.Increment();
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnConnectionClosed() {
    connections_active_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Called by the transport when an accept is turned away at the
  /// connection cap (the peer got an Unavailable reply and a close).
  void OnConnectionRejected() { connections_rejected_.Increment(); }
  /// Called by the transport when a request's deadline expired before its
  /// line finished arriving (the service never saw a parseable request).
  void OnRequestTimeout() {
    deadline_exceeded_.Increment();
    request_errors_.Increment();
  }

  /// Drain gate for the `ready`/`health` ops: TcpServer::Stop flips it
  /// before the transport stops accepting, so load balancers polling
  /// `ready` steer traffic away while in-flight requests finish.
  void SetDraining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  /// ready = not draining and no reload mid-flight.
  bool ready() const {
    return !draining() && !registry_->reload_in_progress();
  }

  /// The registry this service scores through (never null).
  ModelRegistry* registry() const { return registry_; }

  /// Reactor loop count, pushed once by TcpServer::Start so the "stats"
  /// op reports it (0 while no server is attached).
  void SetEventLoopThreads(uint64_t loops) {
    event_loop_threads_.store(loops, std::memory_order_relaxed);
  }
  /// Reactor gauges, pushed by the reactor: one call per
  /// epoll_wait return, and signed deltas tracking the total unflushed
  /// response bytes across all per-connection output queues.
  void OnEpollWakeup() { epoll_wakeups_.Increment(); }
  void AddWritableBacklog(int64_t delta) {
    writable_backlog_bytes_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// All counters exposed by the "stats" op.
  ServiceStats Snapshot() const;

 private:
  using FeaturePtr = ModelGeneration::FeaturePtr;
  using GenerationPtr = std::shared_ptr<const ModelGeneration>;

  /// A scoring request's result, and whether any pair was degraded.
  template <typename T>
  struct Outcome {
    StatusOr<T> value;
    bool degraded = false;
  };
  template <typename T>
  using Done = std::function<void(Outcome<T>)>;

  /// Completion state shared by all in-flight pairs of one request. Only
  /// the batcher touches a queued job, so it needs no lock.
  struct ScoreJob {
    ScoreJob(size_t pair_count, Deadline deadline)
        : scores(pair_count), remaining(pair_count), deadline(deadline) {}
    std::vector<double> scores;
    size_t remaining;
    Status status;  // first failure wins
    bool degraded = false;
    Deadline deadline;  // pairs still queued when it passes are shed
    std::chrono::steady_clock::time_point start =  // of the service time
        std::chrono::steady_clock::now();
    Done<std::vector<double>> done;  // runs exactly once
  };

  struct PendingPair {
    FeaturePtr a;
    FeaturePtr b;
    /// The generation this pair's features were computed with. Held
    /// until the pair is scored, so a hot swap can never destroy the
    /// matcher under a queued pair; the batcher scores each batch
    /// grouped by generation.
    GenerationPtr generation;
    std::shared_ptr<ScoreJob> job;
    size_t index;  // row in job->scores
    /// Either side's embedding lookup failed: score with embedding
    /// columns masked instead of failing the batch.
    bool degraded = false;
    /// Admission instant, for the queue_age_us gauge.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Counted single-key resolve behind the batch gather: probe (hit or
  /// miss counted), compute on miss, cache unless the embedding fault
  /// fired.
  FeaturePtr ResolvePropertyFeatures(const ModelGeneration& generation,
                                     std::string_view key,
                                     const PropertySpec& spec,
                                     bool* degraded);

  /// Fetches every spec's features with one prefetch-ahead LookupBatch
  /// wave over the generation's property cache, resolving misses through
  /// the counted single-key path. `out[i]` receives spec i's features
  /// and `degraded[i]` is set when its embedding lookup failed (those
  /// features are never cached).
  void GatherPropertyFeatures(const ModelGeneration& generation,
                              const std::vector<const PropertySpec*>& specs,
                              FeaturePtr* out, uint8_t* degraded);

  /// The typed paths behind Submit and the synchronous wrappers: each
  /// validates, gathers features and admits on the calling thread, and
  /// runs `done` once, inline if the request ends before admission.
  void StartScore(const std::vector<PropertyPairSpec>& pairs,
                  Deadline deadline, Done<std::vector<double>> done);
  void StartTopK(const PropertySpec& query,
                 const std::vector<PropertySpec>& candidates, size_t k,
                 Deadline deadline, Done<std::vector<MatchResult>> done);
  void StartIndexMatch(const PropertySpec& query, size_t k,
                       Deadline deadline, Done<IndexMatchOutcome> done);
  /// Runs a `reload` on the reload thread; refuses (Unavailable) while a
  /// previous one is still running.
  void StartReload(std::string path,
                   std::function<void(StatusOr<ReloadOutcome>)> done);

  /// Gathers `specs`' features in one cache wave and admits row i as
  /// the pair (specs[rows[i].first], specs[rows[i].second]).
  void AdmitPairs(const GenerationPtr& generation,
                  const std::vector<const PropertySpec*>& specs,
                  const std::vector<std::pair<size_t, size_t>>& rows,
                  std::shared_ptr<ScoreJob> job);
  /// Queues `job`'s pairs for the batcher, or finishes the job at once
  /// when it cannot be admitted (expired deadline, queue bound, shutdown).
  void Admit(std::vector<PendingPair> pending, std::shared_ptr<ScoreJob> job);
  /// Runs `job`'s completion with its scores, or with its failure.
  void FinishJob(ScoreJob& job);

  /// The one wait behind HandleLine, Score and TopK: runs
  /// `start` and blocks until its completion runs or `deadline` passes;
  /// sets `*degraded` (may be null) as the outcome says.
  template <typename T>
  static StatusOr<T> Await(Deadline deadline, bool* degraded,
                           const std::function<void(Done<T>)>& start);

  void BatcherLoop();
  void ScoreBatch(std::vector<PendingPair>& batch);
  /// Scores one same-generation slice [begin, end) of a drained batch
  /// with a single ScoreFeaturePairs call and completes its jobs.
  void ScoreBatchGroup(std::vector<PendingPair>& batch, size_t begin,
                       size_t end);
  /// Counts one pair of its job done; finishes the job after the last.
  void CompletePair(const PendingPair& pair, const Status& status);

  /// Records the service time of one request that started at `start`.
  void RecordLatency(std::chrono::steady_clock::time_point start) {
    latency_.RecordNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }

  ModelRegistry* registry_;
  const ServiceOptions options_;
  std::atomic<bool> draining_{false};

  // Micro-batch queue. Mutable so the const Snapshot() can read the
  // queue_depth/queue_age_us gauges under the lock.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingPair> queue_;
  bool stop_ = false;
  std::thread batcher_;

  // Stats.
  Counter ping_requests_;
  Counter score_requests_;
  Counter topk_requests_;
  Counter index_requests_;
  Counter index_candidates_;
  Counter blocking_ns_;
  Counter stats_requests_;
  Counter admin_requests_;
  Counter request_errors_;
  Counter pairs_scored_;
  Counter batches_;
  BucketHistogram batch_sizes_{10};
  Counter connections_accepted_;
  Counter connections_rejected_;
  Counter rejected_overload_;
  Counter deadline_exceeded_;
  Counter degraded_responses_;
  std::atomic<uint64_t> connections_active_{0};
  // Reactor gauges (SetEventLoopThreads / OnEpollWakeup /
  // AddWritableBacklog).
  std::atomic<uint64_t> event_loop_threads_{0};
  Counter epoll_wakeups_;
  std::atomic<int64_t> writable_backlog_bytes_{0};
  // Service time of every Score/TopK/IndexMatch call since start.
  LatencyRecorder latency_;

  // The running (or last) `reload`; at most one runs at a time. Declared
  // last: the std::async future waits for its task when destroyed, and
  // that happens first, while the counters the task updates still exist.
  std::mutex reload_mu_;
  std::future<void> reload_;
};

}  // namespace leapme::serve

#endif  // LEAPME_SERVE_MATCHER_SERVICE_H_
