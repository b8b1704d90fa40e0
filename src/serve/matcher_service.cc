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

template <typename T>
StatusOr<T> MatcherService::Await(Deadline deadline, bool* degraded,
                                  const std::function<void(Done<T>)>& start) {
  auto promise = std::make_shared<std::promise<Outcome<T>>>();
  std::future<Outcome<T>> future = promise->get_future();
  start([promise](Outcome<T> outcome) {
    promise->set_value(std::move(outcome));
  });
  if (!deadline.infinite() &&
      future.wait_until(deadline.time_point()) != std::future_status::ready) {
    // Give up; the completion still runs later, into the abandoned
    // promise, and counts the miss.
    return Status::DeadlineExceeded(
        "request deadline expired before the response was ready");
  }
  Outcome<T> outcome = future.get();
  if (outcome.degraded && degraded != nullptr) {
    *degraded = true;
  }
  return std::move(outcome.value);
}

void MatcherService::BatcherLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping, and every admitted pair is done
    }
    // Score what is queued now; pairs that arrive while this batch
    // scores form the next one.
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
      // inference on it (its request ends DeadlineExceeded).
      if (pair.job->deadline.expired()) {
        expired.push_back(std::move(pair));
      } else {
        batch.push_back(std::move(pair));
      }
    }
    lock.unlock();
    for (const PendingPair& pair : expired) {
      CompletePair(pair,
                   Status::DeadlineExceeded(
                       "request deadline expired while queued for scoring"));
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
    const PendingPair& pair = batch[begin + i];
    if (scores.ok()) {
      pair.job->scores[pair.index] = scores.value()[i];
    }
    CompletePair(pair, scores.status());
  }
}

void MatcherService::CompletePair(const PendingPair& pair,
                                  const Status& status) {
  ScoreJob& job = *pair.job;
  if (!status.ok() && job.status.ok()) {
    job.status = status;
  }
  if (--job.remaining == 0) {
    FinishJob(job);
  }
}

void MatcherService::FinishJob(ScoreJob& job) {
  if (job.status.ok() && job.deadline.expired()) {
    // Scored too late: the waiter has given up (a transport answers
    // DeadlineExceeded itself), so the request is counted here, once.
    job.status = Status::DeadlineExceeded(
        "request deadline expired before scoring finished");
  }
  if (job.status.IsDeadlineExceeded()) {
    deadline_exceeded_.Increment();
  }
  RecordLatency(job.start);
  job.done({job.status.ok() ? StatusOr<std::vector<double>>(
                                  std::move(job.scores))
                            : job.status,
            job.degraded});
}

void MatcherService::Admit(std::vector<PendingPair> pending,
                           std::shared_ptr<ScoreJob> job) {
  bool queued = false;
  if (faults::InjectError("alloc")) {
    rejected_overload_.Increment();
    job->status = Status::ResourceExhausted(
        "injected allocation failure admitting request");
  } else if (job->deadline.expired()) {
    job->status =
        Status::DeadlineExceeded("request deadline expired before admission");
  } else {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      job->status = Status::FailedPrecondition("service is shutting down");
    } else if (options_.max_queue_pairs > 0 &&
               queue_.size() + pending.size() > options_.max_queue_pairs) {
      rejected_overload_.Increment();
      job->status = Status::ResourceExhausted(StrFormat(
          "admission queue full: %zu pairs queued, %zu more would exceed "
          "the %zu-pair bound",
          queue_.size(), pending.size(), options_.max_queue_pairs));
    } else {
      const auto now = std::chrono::steady_clock::now();
      for (PendingPair& pair : pending) {
        pair.enqueued = now;
        queue_.push_back(std::move(pair));
      }
      queued = true;  // from here on only the batcher touches the job
    }
  }
  if (!queued) {
    FinishJob(*job);
    return;
  }
  queue_cv_.notify_one();
}

void MatcherService::AdmitPairs(
    const GenerationPtr& generation,
    const std::vector<const PropertySpec*>& specs,
    const std::vector<std::pair<size_t, size_t>>& rows,
    std::shared_ptr<ScoreJob> job) {
  // One batched cache wave over every property of the request: one
  // prefetch pass instead of a dependent probe per property.
  std::vector<FeaturePtr> features(specs.size());
  std::vector<uint8_t> degraded(specs.size(), 0);
  GatherPropertyFeatures(*generation, specs, features.data(),
                         degraded.data());
  std::vector<PendingPair> pending(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [a, b] = rows[i];
    pending[i] = {features[a], features[b], generation, job, i,
                  degraded[a] != 0 || degraded[b] != 0, {}};
    job->degraded = job->degraded || pending[i].degraded;
  }
  Admit(std::move(pending), std::move(job));
}

void MatcherService::StartScore(const std::vector<PropertyPairSpec>& pairs,
                                Deadline deadline,
                                Done<std::vector<double>> done) {
  if (pairs.empty()) {
    done({Status::InvalidArgument("no pairs to score")});
    return;
  }
  auto job = std::make_shared<ScoreJob>(pairs.size(), deadline);
  job->done = std::move(done);
  // One generation for the whole request: features, queueing, and
  // scoring all happen on the model this shared_ptr pins, whatever
  // reloads land meanwhile.
  const GenerationPtr generation = registry_->Acquire();
  // Feed the reload canary with real traffic (the first pair stands in
  // for the request).
  registry_->CapturePair(pairs.front());
  std::vector<const PropertySpec*> specs;
  std::vector<std::pair<size_t, size_t>> rows;
  for (const PropertyPairSpec& pair : pairs) {
    rows.emplace_back(specs.size(), specs.size() + 1);
    specs.push_back(&pair.a);
    specs.push_back(&pair.b);
  }
  AdmitPairs(generation, specs, rows, std::move(job));
}

void MatcherService::StartTopK(const PropertySpec& query,
                               const std::vector<PropertySpec>& candidates,
                               size_t k, Deadline deadline,
                               Done<std::vector<MatchResult>> done) {
  if (candidates.empty()) {
    done({Status::InvalidArgument("no candidates")});
    return;
  }
  if (k == 0) {
    done({Status::InvalidArgument("k must be positive")});
    return;
  }
  auto job = std::make_shared<ScoreJob>(candidates.size(), deadline);
  job->done = [k, done = std::move(done)](
                  Outcome<std::vector<double>> scored) {
    if (!scored.value.ok()) {
      done({scored.value.status(), scored.degraded});
      return;
    }
    const std::vector<double>& scores = *scored.value;
    std::vector<MatchResult> matches(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      matches[i] = MatchResult{i, scores[i]};
    }
    const size_t keep = std::min(k, matches.size());
    // Deterministic order: score descending, candidate index ascending.
    std::partial_sort(matches.begin(), matches.begin() + keep, matches.end(),
                      [](const MatchResult& a, const MatchResult& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.index < b.index;
                      });
    matches.resize(keep);
    done({std::move(matches), scored.degraded});
  };
  const GenerationPtr generation = registry_->Acquire();
  registry_->CapturePair(PropertyPairSpec{query, candidates.front()});
  std::vector<const PropertySpec*> specs = {&query};
  std::vector<std::pair<size_t, size_t>> rows;
  for (const PropertySpec& candidate : candidates) {
    rows.emplace_back(0, specs.size());
    specs.push_back(&candidate);
  }
  AdmitPairs(generation, specs, rows, std::move(job));
}

void MatcherService::StartIndexMatch(const PropertySpec& query, size_t k,
                                     Deadline deadline,
                                     Done<IndexMatchOutcome> done) {
  const GenerationPtr generation = registry_->Acquire();
  if (generation->catalog() == nullptr) {
    done({Status::FailedPrecondition(
        "no catalog index attached (start serve with --index-data)")});
    return;
  }
  if (k == 0) {
    done({Status::InvalidArgument("k must be positive")});
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  IndexMatchOutcome outcome;
  bool degraded = false;
  StatusOr<std::vector<data::PropertyId>> blocked =
      generation->catalog_pipeline()->Query(query.name);
  std::vector<data::PropertyId> candidates;
  if (blocked.ok()) {
    candidates = std::move(blocked).value();
  } else if (blocked.status().IsUnavailable()) {
    // Candidate generation failed (e.g. an embedding fault inside an LSH
    // blocker). Degrade to a full-catalog scan: slower, but the request
    // is still served with real scores.
    degraded = true;
    candidates.resize(generation->catalog_features().size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      candidates[i] = static_cast<data::PropertyId>(i);
    }
  } else {
    RecordLatency(start);
    done({blocked.status()});
    return;
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
    done({std::move(outcome), degraded});
    return;
  }

  auto job = std::make_shared<ScoreJob>(candidates.size(), deadline);
  job->start = start;
  FeaturePtr query_features;
  uint8_t query_degraded = 0;
  GatherPropertyFeatures(*generation, {&query}, &query_features,
                         &query_degraded);
  job->degraded = degraded || query_degraded != 0;
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
  std::vector<PendingPair> pending(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    pending[i] = {query_features,
                  generation->catalog_features()[candidates[i]],
                  generation,
                  job,
                  i,
                  query_degraded != 0,
                  {}};
  }
  job->done = [k, generation, candidates = std::move(candidates),
               outcome = std::move(outcome), done = std::move(done)](
                  Outcome<std::vector<double>> scored) mutable {
    if (!scored.value.ok()) {
      done({scored.value.status(), scored.degraded});
      return;
    }
    const std::vector<double>& scores = *scored.value;
    std::vector<IndexMatchResult> matches(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      matches[i].property = candidates[i];
      matches[i].score = scores[i];
    }
    const size_t keep = std::min(k, matches.size());
    // Deterministic order: score descending, property id ascending.
    std::partial_sort(
        matches.begin(), matches.begin() + keep, matches.end(),
        [](const IndexMatchResult& a, const IndexMatchResult& b) {
          if (a.score != b.score) return a.score > b.score;
          return a.property < b.property;
        });
    matches.resize(keep);
    const data::Dataset& catalog = *generation->catalog();
    for (IndexMatchResult& match : matches) {
      const auto id = static_cast<data::PropertyId>(match.property);
      match.name = catalog.property(id).name;
      match.source = catalog.source_name(catalog.property(id).source);
    }
    outcome.matches = std::move(matches);
    done({std::move(outcome), scored.degraded});
  };
  Admit(std::move(pending), std::move(job));
}

void MatcherService::StartReload(
    std::string path, std::function<void(StatusOr<ReloadOutcome>)> done) {
  std::unique_lock<std::mutex> lock(reload_mu_);
  if (reload_.valid() && reload_.wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready) {
    lock.unlock();
    done(Status::Unavailable("another reload is already in progress"));
    return;
  }
  // Never on the caller's thread: a reload (catalog re-attach included)
  // takes far longer than any request.
  reload_ = std::async(std::launch::async, [this, path = std::move(path),
                                            done = std::move(done)] {
    done(registry_->Reload(path));
  });
}

StatusOr<std::vector<double>> MatcherService::Score(
    const std::vector<PropertyPairSpec>& pairs, Deadline deadline,
    bool* degraded) {
  return Await<std::vector<double>>(deadline, degraded, [&](auto done) {
    StartScore(pairs, deadline, std::move(done));
  });
}

StatusOr<std::vector<MatchResult>> MatcherService::TopK(
    const PropertySpec& query, const std::vector<PropertySpec>& candidates,
    size_t k, Deadline deadline, bool* degraded) {
  return Await<std::vector<MatchResult>>(deadline, degraded, [&](auto done) {
    StartTopK(query, candidates, k, deadline, std::move(done));
  });
}

StatusOr<IndexMatchOutcome> MatcherService::IndexMatch(
    const PropertySpec& query, size_t k, Deadline deadline, bool* degraded) {
  return Await<IndexMatchOutcome>(deadline, degraded, [&](auto done) {
    StartIndexMatch(query, k, deadline, std::move(done));
  });
}

std::string MatcherService::HandleLine(std::string_view line,
                                       Deadline deadline) {
  StatusOr<std::string> response =
      Await<std::string>(deadline, nullptr, [&](Done<std::string> done) {
        Submit(line, deadline,
               [done](std::string reply) { done({std::move(reply)}); });
      });
  return response.ok() ? std::move(response).value()
                       : ErrorResponse(std::nullopt, response.status());
}

void MatcherService::Submit(std::string_view line, Deadline deadline,
                            std::function<void(std::string)> done) {
  StatusOr<Request> request = ParseRequest(line);
  if (!request.ok()) {
    request_errors_.Increment();
    done(ErrorResponse(std::nullopt, request.status()));
    return;
  }
  const std::optional<int64_t> id = request->id;
  // Shed-queue and capacity errors carry a retry hint; everything else
  // is a plain typed error.
  const auto error_response = [this, id](const Status& status) {
    request_errors_.Increment();
    const bool retryable = status.IsResourceExhausted() ||
                           status.IsUnavailable();
    return ErrorResponse(id, status, retryable ? kRetryAfterMs : 0);
  };
  if (deadline.expired()) {
    deadline_exceeded_.Increment();
    done(error_response(
        Status::DeadlineExceeded("request deadline expired before dispatch")));
    return;
  }
  // The completion of a scoring op: its outcome feeds the rollback trip,
  // then `format` serializes the result.
  const auto reply = [&](auto format) {
    return [this, id, error_response, format,
            done = std::move(done)](auto outcome) {
      registry_->RecordOutcome(IsModelFault(outcome.value.status()));
      if (!outcome.value.ok()) {
        done(error_response(outcome.value.status()));
        return;
      }
      if (outcome.degraded) {
        degraded_responses_.Increment();
      }
      done(format(id, *outcome.value, outcome.degraded));
    };
  };
  const auto identity = [](const ModelInfo& info) {
    ModelIdentity model;
    model.version = info.version;
    model.fingerprint = info.fingerprint;
    model.format_version = info.format_version;
    return model;
  };
  switch (request->op) {
    case Op::kPing:
      ping_requests_.Increment();
      done(PingResponse(id));
      return;
    case Op::kStats:
      stats_requests_.Increment();
      done(StatsResponse(id, Snapshot()));
      return;
    case Op::kHealth:
      admin_requests_.Increment();
      done(HealthResponse(id, !draining(),
                          identity(registry_->Acquire()->info())));
      return;
    case Op::kReady:
      admin_requests_.Increment();
      done(ReadyResponse(id, ready(), identity(registry_->Acquire()->info())));
      return;
    case Op::kReload:
      admin_requests_.Increment();
      StartReload(request->model_path, [this, id, deadline, error_response,
                                        identity, done = std::move(done)](
                                           StatusOr<ReloadOutcome> outcome) {
        if (outcome.ok() && deadline.expired()) {
          // Too late for the client, as with a late score: counted here.
          deadline_exceeded_.Increment();
          outcome = Status::DeadlineExceeded(
              "request deadline expired before the reload finished");
        }
        done(outcome.ok() ? ReloadResponse(id, identity(outcome->info),
                                           outcome->canary_divergence,
                                           outcome->canary_pairs)
                          : error_response(outcome.status()));
      });
      return;
    case Op::kScore:
      score_requests_.Increment();
      StartScore(request->pairs, deadline, reply(&ScoreResponse));
      return;
    case Op::kTopK:
      topk_requests_.Increment();
      StartTopK(request->query, request->candidates, request->k, deadline,
                reply(&TopKResponse));
      return;
    case Op::kIndexMatch:
      index_requests_.Increment();
      StartIndexMatch(request->query, request->k, deadline,
                      reply(&IndexMatchResponse));
      return;
  }
  request_errors_.Increment();
  done(ErrorResponse(id, Status::Internal("unhandled op")));
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
