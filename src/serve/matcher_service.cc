#include "serve/matcher_service.h"

#include <algorithm>
#include <chrono>

#include "common/faults/fault_injector.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace leapme::serve {

namespace {

/// Backoff hint attached to Unavailable / ResourceExhausted replies:
/// long enough for a shed queue to drain a few micro-batches, short
/// enough that a polite client retries promptly.
constexpr uint64_t kRetryAfterMs = 50;

/// Cache key: name and values joined with separators that cannot appear
/// in TSV-sourced values (unit separator / record separator), so distinct
/// (name, values) lists never collide.
std::string PropertyCacheKey(const PropertySpec& spec) {
  size_t total = spec.name.size() + 1;
  for (const std::string& value : spec.values) {
    total += value.size() + 1;
  }
  std::string key;
  key.reserve(total);
  key.append(spec.name);
  key.push_back('\x1f');
  for (const std::string& value : spec.values) {
    key.append(value);
    key.push_back('\x1e');
  }
  return key;
}

/// Errors that indict the serving model for the post-swap rollback trip:
/// client mistakes (InvalidArgument), load shedding and deadline
/// pressure (ResourceExhausted / Unavailable / DeadlineExceeded), and
/// configuration gaps (FailedPrecondition) say nothing about the model,
/// so only the remaining codes (Internal, IoError, Corruption, ...)
/// count as model faults.
bool IsModelFault(const Status& status) {
  return !status.ok() && !status.IsInvalidArgument() &&
         !status.IsResourceExhausted() && !status.IsDeadlineExceeded() &&
         !status.IsUnavailable() && !status.IsFailedPrecondition();
}

}  // namespace

MatcherService::MatcherService(ModelRegistry* registry,
                               ServiceOptions options)
    : registry_(registry), options_(options) {
  batcher_ = std::thread([this] { BatcherLoop(); });
}

StatusOr<std::unique_ptr<MatcherService>> MatcherService::Create(
    ModelRegistry* registry, ServiceOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("MatcherService requires a registry");
  }
  if (registry->Acquire() == nullptr) {
    return Status::FailedPrecondition(
        "MatcherService requires an initialized registry (Init first)");
  }
  return std::make_unique<MatcherService>(registry, options);
}

MatcherService::~MatcherService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) {
    batcher_.join();
  }
}

MatcherService::FeaturePtr MatcherService::GetPropertyFeatures(
    const ModelGeneration& generation, const PropertySpec& spec,
    bool* degraded) {
  return ResolvePropertyFeatures(generation, PropertyCacheKey(spec), spec,
                                 degraded);
}

MatcherService::FeaturePtr MatcherService::ResolvePropertyFeatures(
    const ModelGeneration& generation, std::string_view key,
    const PropertySpec& spec, bool* degraded) {
  FeaturePtr cached;
  if (generation.property_cache().Lookup(
          key, [&](const FeaturePtr& features) { cached = features; })) {
    return cached;
  }
  // Compute outside the shard lock; a concurrent duplicate miss computes
  // the same deterministic vector and the second insert is dropped.
  const bool lookup_failed = faults::InjectError("embedding.lookup");
  auto features = std::make_shared<features::PropertyFeatures>(
      generation.matcher().ComputePropertyFeatures(spec.name, spec.values));
  if (lookup_failed) {
    // The embedding portion of this vector is untrusted: mark the
    // request degraded (scoring masks the embedding columns) and keep
    // the vector out of the cache so one failed lookup never poisons
    // later requests for the same property.
    if (degraded != nullptr) {
      *degraded = true;
    }
    return features;
  }
  generation.property_cache().Insert(key, features);
  return features;
}

void MatcherService::GatherPropertyFeatures(
    const ModelGeneration& generation,
    const std::vector<const PropertySpec*>& specs, FeaturePtr* out,
    uint8_t* degraded) {
  const size_t count = specs.size();
  std::vector<std::string> keys;
  keys.reserve(count);
  std::vector<std::string_view> views(count);
  for (size_t i = 0; i < count; ++i) {
    keys.push_back(PropertyCacheKey(*specs[i]));
    views[i] = keys.back();
  }
  std::vector<uint8_t> found(count, 0);
  // One prefetch wave across every property of the request, then probe:
  // hits are counted inside; misses fall through to the counted resolve
  // below, so the totals match the sequential per-property flow.
  generation.property_cache().LookupBatch(
      views, found.data(),
      [&](size_t i, const FeaturePtr& features) { out[i] = features; });
  for (size_t i = 0; i < count; ++i) {
    degraded[i] = 0;
    if (found[i]) continue;
    bool spec_degraded = false;
    out[i] = ResolvePropertyFeatures(generation, views[i], *specs[i],
                                     &spec_degraded);
    degraded[i] = spec_degraded ? 1 : 0;
  }
}

void MatcherService::BatcherLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // First pair seen: linger up to the batch window so concurrent
    // requests coalesce, unless the batch is already full or we are
    // draining for shutdown.
    if (queue_.size() < options_.max_batch && options_.batch_window_us > 0 &&
        !stop_) {
      queue_cv_.wait_for(
          lock, std::chrono::microseconds(options_.batch_window_us),
          [this] { return queue_.size() >= options_.max_batch || stop_; });
    }
    const size_t take =
        std::min(queue_.size(), std::max<size_t>(1, options_.max_batch));
    std::vector<PendingPair> batch;
    std::vector<PendingPair> expired;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      PendingPair pair = std::move(queue_.front());
      queue_.pop_front();
      // Load shedding: a pair whose deadline passed while it waited has
      // no one left to use its score — fail it instead of spending
      // inference on it (its waiter is told DeadlineExceeded).
      if (pair.deadline.expired()) {
        expired.push_back(std::move(pair));
      } else {
        batch.push_back(std::move(pair));
      }
    }
    lock.unlock();
    for (const PendingPair& pair : expired) {
      std::lock_guard<std::mutex> job_lock(pair.job->mu);
      if (pair.job->status.ok()) {
        pair.job->status = Status::DeadlineExceeded(
            "request deadline expired while queued for scoring");
      }
      if (--pair.job->remaining == 0) {
        pair.job->cv.notify_all();
      }
    }
    if (!batch.empty()) {
      ScoreBatch(batch);
    }
    lock.lock();
  }
}

void MatcherService::ScoreBatch(std::vector<PendingPair>& batch) {
  // A batch drained across a reload boundary can hold pairs whose
  // features were computed by different generations; each pair must be
  // scored by the matcher that computed its features. Pairs of one
  // request share a generation and the queue is FIFO, so the batch is a
  // handful of contiguous same-generation runs — score each run with one
  // ScoreFeaturePairs call. In steady state there is exactly one run and
  // this degenerates to the single-inference path.
  size_t begin = 0;
  for (size_t i = 1; i <= batch.size(); ++i) {
    if (i == batch.size() ||
        batch[i].generation.get() != batch[begin].generation.get()) {
      ScoreBatchGroup(batch, begin, i);
      begin = i;
    }
  }
}

void MatcherService::ScoreBatchGroup(std::vector<PendingPair>& batch,
                                     size_t begin, size_t end) {
  const size_t count = end - begin;
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  lhs.reserve(count);
  rhs.reserve(count);
  bool any_degraded = false;
  std::vector<uint8_t> degraded_rows(count, 0);
  for (size_t i = 0; i < count; ++i) {
    lhs.push_back(batch[begin + i].a.get());
    rhs.push_back(batch[begin + i].b.get());
    if (batch[begin + i].degraded) {
      degraded_rows[i] = 1;
      any_degraded = true;
    }
  }
  StatusOr<std::vector<double>> scores =
      faults::InjectError("serve.score")
          ? StatusOr<std::vector<double>>(Status::Internal(
                "injected scoring failure (serve.score fault)"))
          : batch[begin].generation->matcher().ScoreFeaturePairs(
                lhs, rhs, any_degraded ? &degraded_rows : nullptr);
  batches_.Increment();
  batch_sizes_.Record(count);
  if (scores.ok()) {
    pairs_scored_.Increment(count);
  }

  for (size_t i = 0; i < count; ++i) {
    const std::shared_ptr<ScoreJob>& job = batch[begin + i].job;
    std::lock_guard<std::mutex> lock(job->mu);
    if (scores.ok()) {
      job->scores[batch[begin + i].index] = scores.value()[i];
    } else if (job->status.ok()) {
      job->status = scores.status();
    }
    if (--job->remaining == 0) {
      job->cv.notify_all();
    }
  }
}

StatusOr<std::vector<double>> MatcherService::ScoreFeaturePairsBatched(
    std::vector<PendingPair> pending, std::shared_ptr<ScoreJob> job,
    Deadline deadline) {
  if (faults::InjectError("alloc")) {
    rejected_overload_.Increment();
    return Status::ResourceExhausted(
        "injected allocation failure admitting request");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    if (options_.max_queue_pairs > 0 &&
        queue_.size() + pending.size() > options_.max_queue_pairs) {
      rejected_overload_.Increment();
      return Status::ResourceExhausted(StrFormat(
          "admission queue full: %zu pairs queued, %zu more would exceed "
          "the %zu-pair bound",
          queue_.size(), pending.size(), options_.max_queue_pairs));
    }
    const auto now = std::chrono::steady_clock::now();
    for (PendingPair& pair : pending) {
      pair.enqueued = now;
      queue_.push_back(std::move(pair));
    }
  }
  queue_cv_.notify_all();

  std::unique_lock<std::mutex> lock(job->mu);
  if (deadline.infinite()) {
    job->cv.wait(lock, [&job] { return job->remaining == 0; });
  } else if (!job->cv.wait_until(lock, deadline.time_point(),
                                 [&job] { return job->remaining == 0; })) {
    // Give up waiting; the batcher still owns shared references to the
    // job and completes the orphaned slots harmlessly (or sheds them via
    // the queue-side deadline check).
    deadline_exceeded_.Increment();
    return Status::DeadlineExceeded(
        "request deadline expired before scoring finished");
  }
  if (!job->status.ok()) {
    if (job->status.IsDeadlineExceeded()) {
      deadline_exceeded_.Increment();
    }
    return job->status;
  }
  return std::move(job->scores);
}

StatusOr<std::vector<double>> MatcherService::Score(
    const std::vector<PropertyPairSpec>& pairs, Deadline deadline,
    bool* degraded) {
  if (pairs.empty()) {
    return Status::InvalidArgument("no pairs to score");
  }
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    return Status::DeadlineExceeded(
        "request deadline expired before feature computation");
  }
  const auto start = std::chrono::steady_clock::now();
  // One generation for the whole request: features, queueing, and
  // scoring all happen on the model this shared_ptr pins, whatever
  // reloads land meanwhile.
  const GenerationPtr generation = registry_->Acquire();
  // Feed the reload canary with real traffic (the first pair stands in
  // for the request).
  registry_->CapturePair(pairs.front());
  auto job = std::make_shared<ScoreJob>(pairs.size());
  // Gather both sides of every pair in one batched cache wave, then
  // enqueue: the request pays one prefetch pass instead of 2N dependent
  // probe round-trips.
  std::vector<const PropertySpec*> specs(2 * pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    specs[2 * i] = &pairs[i].a;
    specs[2 * i + 1] = &pairs[i].b;
  }
  std::vector<FeaturePtr> features(specs.size());
  std::vector<uint8_t> spec_degraded(specs.size(), 0);
  GatherPropertyFeatures(*generation, specs, features.data(),
                         spec_degraded.data());
  std::vector<PendingPair> pending;
  pending.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool pair_degraded =
        spec_degraded[2 * i] != 0 || spec_degraded[2 * i + 1] != 0;
    PendingPair pair;
    pair.a = std::move(features[2 * i]);
    pair.b = std::move(features[2 * i + 1]);
    pair.generation = generation;
    pair.job = job;
    pair.index = i;
    pair.degraded = pair_degraded;
    pair.deadline = deadline;
    if (pair_degraded && degraded != nullptr) {
      *degraded = true;
    }
    pending.push_back(std::move(pair));
  }
  auto scores = ScoreFeaturePairsBatched(std::move(pending), job, deadline);
  RecordLatency(start);
  return scores;
}

StatusOr<std::vector<MatchResult>> MatcherService::TopK(
    const PropertySpec& query, const std::vector<PropertySpec>& candidates,
    size_t k, Deadline deadline, bool* degraded) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidates");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    return Status::DeadlineExceeded(
        "request deadline expired before feature computation");
  }
  const auto start = std::chrono::steady_clock::now();
  const GenerationPtr generation = registry_->Acquire();
  registry_->CapturePair(PropertyPairSpec{query, candidates.front()});
  auto job = std::make_shared<ScoreJob>(candidates.size());
  // One batched cache wave over the query + every candidate.
  std::vector<const PropertySpec*> specs(1 + candidates.size());
  specs[0] = &query;
  for (size_t i = 0; i < candidates.size(); ++i) {
    specs[1 + i] = &candidates[i];
  }
  std::vector<FeaturePtr> features(specs.size());
  std::vector<uint8_t> spec_degraded(specs.size(), 0);
  GatherPropertyFeatures(*generation, specs, features.data(),
                         spec_degraded.data());
  const bool query_degraded = spec_degraded[0] != 0;
  FeaturePtr query_features = std::move(features[0]);
  std::vector<PendingPair> pending;
  pending.reserve(candidates.size());
  bool any_degraded = query_degraded;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const bool candidate_degraded = spec_degraded[1 + i] != 0;
    PendingPair pair;
    pair.a = query_features;
    pair.b = std::move(features[1 + i]);
    pair.generation = generation;
    pair.job = job;
    pair.index = i;
    pair.degraded = query_degraded || candidate_degraded;
    pair.deadline = deadline;
    any_degraded = any_degraded || candidate_degraded;
    pending.push_back(std::move(pair));
  }
  if (any_degraded && degraded != nullptr) {
    *degraded = true;
  }
  auto scores = ScoreFeaturePairsBatched(std::move(pending), job, deadline);
  if (!scores.ok()) {
    return scores.status();
  }

  std::vector<MatchResult> matches(scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    matches[i] = MatchResult{i, (*scores)[i]};
  }
  const size_t keep = std::min(k, matches.size());
  // Deterministic order: score descending, candidate index ascending.
  std::partial_sort(matches.begin(), matches.begin() + keep, matches.end(),
                    [](const MatchResult& a, const MatchResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.index < b.index;
                    });
  matches.resize(keep);
  RecordLatency(start);
  return matches;
}

StatusOr<IndexMatchOutcome> MatcherService::IndexMatch(
    const PropertySpec& query, size_t k, Deadline deadline, bool* degraded) {
  const GenerationPtr generation = registry_->Acquire();
  if (generation->catalog() == nullptr) {
    return Status::FailedPrecondition(
        "no catalog index attached (start serve with --index-data)");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    return Status::DeadlineExceeded(
        "request deadline expired before blocking");
  }
  const auto start = std::chrono::steady_clock::now();

  IndexMatchOutcome outcome;
  StatusOr<std::vector<data::PropertyId>> blocked =
      generation->catalog_pipeline()->Query(query.name);
  std::vector<data::PropertyId> candidates;
  if (blocked.ok()) {
    candidates = std::move(blocked).value();
  } else if (blocked.status().IsUnavailable()) {
    // Candidate generation failed (e.g. an embedding fault inside an LSH
    // blocker). Degrade to a full-catalog scan: slower, but the request
    // is still served with real scores.
    if (degraded != nullptr) {
      *degraded = true;
    }
    candidates.resize(generation->catalog_features().size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      candidates[i] = static_cast<data::PropertyId>(i);
    }
  } else {
    return blocked.status();
  }
  const uint64_t blocking_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  blocking_ns_.Increment(blocking_ns);
  index_candidates_.Increment(candidates.size());
  outcome.candidate_count = candidates.size();
  outcome.blocking_us = static_cast<double>(blocking_ns) / 1000.0;
  if (candidates.empty()) {
    RecordLatency(start);
    return outcome;
  }
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    return Status::DeadlineExceeded(
        "request deadline expired during blocking");
  }

  auto job = std::make_shared<ScoreJob>(candidates.size());
  bool query_degraded = false;
  FeaturePtr query_features =
      GetPropertyFeatures(*generation, query, &query_degraded);
  if (query_degraded && degraded != nullptr) {
    *degraded = true;
  }
  // Feed the canary with a realistic catalog pair: the query against its
  // first blocked candidate (reconstructed from the catalog dataset).
  {
    const auto id = static_cast<data::PropertyId>(candidates.front());
    PropertyPairSpec sample;
    sample.a = query;
    sample.b.name = generation->catalog()->property(id).name;
    for (const data::InstanceValue& instance :
         generation->catalog()->instances(id)) {
      sample.b.values.push_back(instance.value);
    }
    registry_->CapturePair(sample);
  }
  std::vector<PendingPair> pending;
  pending.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    PendingPair pair;
    pair.a = query_features;
    pair.b = generation->catalog_features()[candidates[i]];
    pair.generation = generation;
    pair.job = job;
    pair.index = i;
    pair.degraded = query_degraded;
    pair.deadline = deadline;
    pending.push_back(std::move(pair));
  }
  auto scores = ScoreFeaturePairsBatched(std::move(pending), job, deadline);
  if (!scores.ok()) {
    return scores.status();
  }

  std::vector<IndexMatchResult> matches(scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    matches[i].property = candidates[i];
    matches[i].score = (*scores)[i];
  }
  const size_t keep = std::min(k, matches.size());
  // Deterministic order: score descending, property id ascending.
  std::partial_sort(matches.begin(), matches.begin() + keep, matches.end(),
                    [](const IndexMatchResult& a, const IndexMatchResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.property < b.property;
                    });
  matches.resize(keep);
  for (IndexMatchResult& match : matches) {
    const auto id = static_cast<data::PropertyId>(match.property);
    const data::Dataset& catalog = *generation->catalog();
    match.name = catalog.property(id).name;
    match.source = catalog.source_name(catalog.property(id).source);
  }
  outcome.matches = std::move(matches);
  RecordLatency(start);
  return outcome;
}

std::string MatcherService::HandleLine(std::string_view line,
                                       Deadline deadline) {
  StatusOr<Request> request = ParseRequest(line);
  if (!request.ok()) {
    request_errors_.Increment();
    return ErrorResponse(std::nullopt, request.status());
  }
  // Shed-queue and capacity errors carry a retry hint; everything else
  // is a plain typed error.
  const auto error_response = [this](const std::optional<int64_t>& id,
                                     const Status& status) {
    request_errors_.Increment();
    const bool retryable = status.IsResourceExhausted() ||
                           status.IsUnavailable();
    return ErrorResponse(id, status, retryable ? kRetryAfterMs : 0);
  };
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    return error_response(
        request->id,
        Status::DeadlineExceeded("request deadline expired before dispatch"));
  }
  switch (request->op) {
    case Op::kPing:
      ping_requests_.Increment();
      return PingResponse(request->id);
    case Op::kStats:
      stats_requests_.Increment();
      return StatsResponse(request->id, Snapshot());
    case Op::kHealth: {
      admin_requests_.Increment();
      const GenerationPtr generation = registry_->Acquire();
      ModelIdentity identity;
      identity.version = generation->info().version;
      identity.fingerprint = generation->info().fingerprint;
      identity.format_version = generation->info().format_version;
      return HealthResponse(request->id, !draining(), identity);
    }
    case Op::kReady: {
      admin_requests_.Increment();
      const GenerationPtr generation = registry_->Acquire();
      ModelIdentity identity;
      identity.version = generation->info().version;
      identity.fingerprint = generation->info().fingerprint;
      identity.format_version = generation->info().format_version;
      return ReadyResponse(request->id, ready(), identity);
    }
    case Op::kReload: {
      admin_requests_.Increment();
      StatusOr<ReloadOutcome> outcome = registry_->Reload(request->model_path);
      if (!outcome.ok()) {
        return error_response(request->id, outcome.status());
      }
      ModelIdentity identity;
      identity.version = outcome->info.version;
      identity.fingerprint = outcome->info.fingerprint;
      identity.format_version = outcome->info.format_version;
      return ReloadResponse(request->id, identity, outcome->canary_divergence,
                            outcome->canary_pairs);
    }
    case Op::kScore: {
      score_requests_.Increment();
      bool degraded = false;
      StatusOr<std::vector<double>> scores =
          Score(request->pairs, deadline, &degraded);
      registry_->RecordOutcome(IsModelFault(scores.status()));
      if (!scores.ok()) {
        return error_response(request->id, scores.status());
      }
      if (degraded) {
        degraded_responses_.Increment();
      }
      return ScoreResponse(request->id, scores.value(), degraded);
    }
    case Op::kTopK: {
      topk_requests_.Increment();
      bool degraded = false;
      StatusOr<std::vector<MatchResult>> matches =
          TopK(request->query, request->candidates, request->k, deadline,
               &degraded);
      registry_->RecordOutcome(IsModelFault(matches.status()));
      if (!matches.ok()) {
        return error_response(request->id, matches.status());
      }
      if (degraded) {
        degraded_responses_.Increment();
      }
      return TopKResponse(request->id, matches.value(), degraded);
    }
    case Op::kIndexMatch: {
      index_requests_.Increment();
      bool degraded = false;
      StatusOr<IndexMatchOutcome> outcome =
          IndexMatch(request->query, request->k, deadline, &degraded);
      registry_->RecordOutcome(IsModelFault(outcome.status()));
      if (!outcome.ok()) {
        return error_response(request->id, outcome.status());
      }
      if (degraded) {
        degraded_responses_.Increment();
      }
      return IndexMatchResponse(request->id, outcome.value(), degraded);
    }
  }
  request_errors_.Increment();
  return ErrorResponse(request->id, Status::Internal("unhandled op"));
}

ServiceStats MatcherService::Snapshot() const {
  ServiceStats stats;
  stats.ping_requests = ping_requests_.value();
  stats.score_requests = score_requests_.value();
  stats.topk_requests = topk_requests_.value();
  stats.index_requests = index_requests_.value();
  stats.stats_requests = stats_requests_.value();
  stats.admin_requests = admin_requests_.value();
  stats.requests = stats.ping_requests + stats.score_requests +
                   stats.topk_requests + stats.index_requests +
                   stats.stats_requests + stats.admin_requests;
  stats.request_errors = request_errors_.value();
  stats.pairs_scored = pairs_scored_.value();
  stats.batches = batches_.value();
  stats.batch_histogram = batch_sizes_.Snapshot();
  stats.batch_histogram_labels.reserve(stats.batch_histogram.size());
  for (size_t i = 0; i < stats.batch_histogram.size(); ++i) {
    stats.batch_histogram_labels.push_back(batch_sizes_.BucketLabel(i));
  }
  const GenerationPtr generation = registry_->Acquire();
  if (generation->embedding_cache() != nullptr) {
    stats.embedding_cache_hits = generation->embedding_cache()->hits();
    stats.embedding_cache_misses = generation->embedding_cache()->misses();
    stats.embedding_cache_evictions =
        generation->embedding_cache()->evictions();
    stats.embedding_cache_max_probe =
        generation->embedding_cache()->max_probe();
  }
  {
    const cache::CacheCounters property =
        generation->property_cache().Counters();
    stats.property_cache_hits = property.hits;
    stats.property_cache_misses = property.misses;
    stats.property_cache_evictions = property.evictions;
    stats.property_cache_max_probe = property.max_probe;
  }
  stats.cache_shards = generation->property_cache().shards();
  stats.connections_accepted = connections_accepted_.value();
  stats.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  stats.connections_rejected = connections_rejected_.value();
  stats.rejected_overload = rejected_overload_.value();
  stats.deadline_exceeded = deadline_exceeded_.value();
  stats.degraded_responses = degraded_responses_.value();
  stats.faults_injected = faults::FaultInjector::Global().injected();
  stats.event_loop_threads =
      event_loop_threads_.load(std::memory_order_relaxed);
  stats.epoll_wakeups = epoll_wakeups_.value();
  // Clamp: deltas from concurrently-flushing loops can transiently read
  // below zero.
  stats.writable_backlog_bytes = static_cast<uint64_t>(std::max<int64_t>(
      writable_backlog_bytes_.load(std::memory_order_relaxed), 0));
  {
    // The queue gauges pair up: depth says how much work is waiting,
    // age says how long the head has waited — depth alone cannot tell a
    // full-but-moving queue from a stalled one.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.queue_depth = queue_.size();
    if (!queue_.empty()) {
      stats.queue_age_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - queue_.front().enqueued)
              .count());
    }
  }
  const LatencyRecorder::Summary latency = latency_.Snapshot();
  stats.latency_p50_us = latency.p50_us;
  stats.latency_p95_us = latency.p95_us;
  stats.latency_p99_us = latency.p99_us;
  stats.latency_samples = latency.count;
  stats.kernel_path = kernels::ActiveKernelName();
  stats.catalog_properties = generation->catalog_features().size();
  stats.index_candidates = index_candidates_.value();
  stats.blocking_us_total =
      static_cast<double>(blocking_ns_.value()) / 1000.0;
  if (generation->catalog_pipeline() != nullptr) {
    for (const blocking::BlockerStats& blocker :
         generation->catalog_pipeline()->SnapshotStats()) {
      BlockerStat stat;
      stat.name = blocker.name;
      stat.batch_calls = blocker.batch_calls;
      stat.queries = blocker.queries;
      stat.candidates = blocker.candidates;
      stat.total_ns = blocker.total_ns;
      stats.blockers.push_back(std::move(stat));
    }
  }
  for (const features::StageTiming& timing :
       generation->matcher().pipeline().StageTimings()) {
    StageTimingStat stage;
    stage.name = timing.name;
    stage.version = timing.version;
    stage.property_calls = timing.property_calls;
    stage.property_ns = timing.property_ns;
    stage.pair_calls = timing.pair_calls;
    stage.pair_ns = timing.pair_ns;
    stats.feature_stages.push_back(std::move(stage));
  }
  const RegistryStats registry = registry_->Snapshot();
  stats.model_version = registry.info.version;
  stats.model_fingerprint = registry.info.fingerprint;
  stats.model_format_version = registry.info.format_version;
  stats.model_mtime = registry.info.file_mtime;
  stats.reloads_ok = registry.reloads_ok;
  stats.reloads_rejected = registry.reloads_rejected;
  stats.reloads_rolled_back = registry.reloads_rolled_back;
  stats.canary_divergence = registry.canary_divergence;
  return stats;
}

}  // namespace leapme::serve
