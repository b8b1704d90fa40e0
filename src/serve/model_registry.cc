#include "serve/model_registry.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace leapme::serve {

int64_t FileMtimeSeconds(const std::string& path) {
  struct stat info = {};
  if (::stat(path.c_str(), &info) != 0) {
    return 0;
  }
  return static_cast<int64_t>(info.st_mtime);
}

Status ValidateServingModel(
    const core::LeapmeMatcher* matcher,
    const embedding::CachingEmbeddingModel* embedding_cache) {
  if (matcher == nullptr) {
    return Status::InvalidArgument("serving requires a matcher");
  }
  if (!matcher->fitted()) {
    return Status::FailedPrecondition(
        "cannot serve an unfitted matcher (Fit or LoadModel first)");
  }
  const size_t pipeline_dim = matcher->pipeline().schema().embedding_dim();
  if (embedding_cache != nullptr &&
      embedding_cache->dimension() != pipeline_dim) {
    return Status::FailedPrecondition(StrFormat(
        "embedding cache dimension %zu does not match the matcher's "
        "feature pipeline dimension %zu (schema %s)",
        embedding_cache->dimension(), pipeline_dim,
        matcher->pipeline().schema().fingerprint().c_str()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ModelGeneration

ModelGeneration::ModelGeneration(
    const core::LeapmeMatcher* matcher,
    const embedding::CachingEmbeddingModel* embedding_cache,
    size_t property_cache_capacity, size_t property_cache_shards,
    ModelInfo info, Resources owned)
    : owned_(std::move(owned)),
      matcher_(matcher),
      embedding_cache_(embedding_cache),
      property_cache_(std::max<size_t>(1, property_cache_capacity),
                      property_cache_shards),
      info_(std::move(info)) {}

Status ModelGeneration::AttachCatalog(
    const data::Dataset* catalog,
    std::unique_ptr<blocking::CandidatePipeline> pipeline) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("AttachCatalog requires a dataset");
  }
  if (pipeline == nullptr) {
    return Status::InvalidArgument("AttachCatalog requires a pipeline");
  }
  if (catalog->property_count() == 0) {
    return Status::InvalidArgument("catalog dataset has no properties");
  }
  LEAPME_RETURN_IF_ERROR(pipeline->BuildIndex(*catalog));
  // Precompute every catalog property's feature vector once; each slot is
  // written by exactly one chunk, so the fan-out is deterministic.
  const size_t count = catalog->property_count();
  std::vector<FeaturePtr> precomputed(count);
  ParallelFor(0, count, /*grain=*/8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto id = static_cast<data::PropertyId>(i);
      const std::vector<data::InstanceValue>& instances =
          catalog->instances(id);
      std::vector<std::string> values;
      values.reserve(instances.size());
      for (const data::InstanceValue& instance : instances) {
        values.push_back(instance.value);
      }
      precomputed[i] = std::make_shared<features::PropertyFeatures>(
          matcher_->ComputePropertyFeatures(catalog->property(id).name,
                                            values));
    }
  });
  catalog_ = catalog;
  catalog_pipeline_ = std::move(pipeline);
  catalog_features_ = std::move(precomputed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ModelRegistry

ModelRegistry::ModelRegistry(Loader loader, RegistryOptions options)
    : loader_(std::move(loader)),
      options_(options),
      canary_ring_(),
      outcome_window_(std::max<size_t>(1, options.rollback_window), 0) {
  canary_ring_.reserve(options_.canary_capacity);
}

StatusOr<std::unique_ptr<ModelRegistry>> ModelRegistry::WrapExisting(
    const core::LeapmeMatcher* matcher,
    const embedding::CachingEmbeddingModel* embedding_cache,
    RegistryOptions options) {
  LEAPME_RETURN_IF_ERROR(ValidateServingModel(matcher, embedding_cache));
  auto registry = std::make_unique<ModelRegistry>(Loader(), options);
  ModelInfo info;
  info.version = registry->next_version_++;
  info.fingerprint = matcher->pipeline().schema().fingerprint();
  info.format_version = matcher->loaded_format_version();
  registry->current_ = std::make_shared<ModelGeneration>(
      matcher, embedding_cache, options.property_cache_capacity,
      options.property_cache_shards, std::move(info));
  return registry;
}

Status ModelRegistry::Init(const std::string& path) {
  if (!loader_) {
    return Status::FailedPrecondition(
        "registry has no model loader (WrapExisting registries start "
        "initialized)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr) {
      return Status::FailedPrecondition("registry already initialized");
    }
  }
  LEAPME_ASSIGN_OR_RETURN(ModelGeneration::Resources resources,
                          loader_(path));
  LEAPME_RETURN_IF_ERROR(ValidateServingModel(
      resources.matcher.get(), resources.embedding_cache.get()));
  ModelInfo info;
  info.fingerprint =
      resources.matcher->pipeline().schema().fingerprint();
  info.format_version = resources.matcher->loaded_format_version();
  info.path = path;
  info.file_mtime = FileMtimeSeconds(path);
  const core::LeapmeMatcher* matcher = resources.matcher.get();
  const embedding::CachingEmbeddingModel* cache =
      resources.embedding_cache.get();
  auto generation = std::make_shared<ModelGeneration>(
      matcher, cache, options_.property_cache_capacity,
      options_.property_cache_shards, std::move(info),
      std::move(resources));
  std::lock_guard<std::mutex> lock(mu_);
  generation->set_version(next_version_++);
  current_ = std::move(generation);
  return Status::OK();
}

Status ModelRegistry::AttachCatalog(const data::Dataset* catalog,
                                    const std::string& blocking_spec) {
  std::shared_ptr<const ModelGeneration> current = Acquire();
  if (current == nullptr) {
    return Status::FailedPrecondition("AttachCatalog requires Init first");
  }
  catalog_ = catalog;
  catalog_spec_ = blocking_spec;
  // Safe: the generation is not serving yet (AttachCatalog runs before
  // the transport starts) and the catalog members are generation-local.
  return AttachCatalogToGeneration(
      const_cast<ModelGeneration&>(*current));
}

Status ModelRegistry::AttachCatalogToGeneration(
    ModelGeneration& generation) const {
  if (catalog_ == nullptr) {
    return Status::OK();
  }
  LEAPME_ASSIGN_OR_RETURN(
      std::unique_ptr<blocking::CandidatePipeline> pipeline,
      blocking::CandidatePipeline::Parse(catalog_spec_,
                                         generation.embedding_cache()));
  return generation.AttachCatalog(catalog_, std::move(pipeline));
}

std::shared_ptr<const ModelGeneration> ModelRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

StatusOr<std::vector<double>> ModelRegistry::ShadowScore(
    const ModelGeneration& generation,
    const std::vector<PropertyPairSpec>& sample) {
  std::vector<features::PropertyFeatures> features;
  features.reserve(2 * sample.size());
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  lhs.reserve(sample.size());
  rhs.reserve(sample.size());
  for (const PropertyPairSpec& pair : sample) {
    features.push_back(generation.matcher().ComputePropertyFeatures(
        pair.a.name, pair.a.values));
    lhs.push_back(&features.back());
    features.push_back(generation.matcher().ComputePropertyFeatures(
        pair.b.name, pair.b.values));
    rhs.push_back(&features.back());
  }
  return generation.matcher().ScoreFeaturePairs(lhs, rhs);
}

StatusOr<std::shared_ptr<ModelGeneration>>
ModelRegistry::BuildCandidate(const std::string& path,
                              const ModelGeneration& current,
                              double* divergence, size_t* canary_pairs) {
  // Stage 1: load into a sidecar — nothing here touches serving state,
  // and the model.load fault point (inside LoadModel) fires here.
  LEAPME_ASSIGN_OR_RETURN(ModelGeneration::Resources resources,
                          loader_(path));
  // Stage 2: the same admission gate Init and WrapExisting apply.
  LEAPME_RETURN_IF_ERROR(ValidateServingModel(
      resources.matcher.get(), resources.embedding_cache.get()));

  ModelInfo info;
  info.fingerprint =
      resources.matcher->pipeline().schema().fingerprint();
  info.format_version = resources.matcher->loaded_format_version();
  info.path = path;
  info.file_mtime = FileMtimeSeconds(path);
  const core::LeapmeMatcher* matcher = resources.matcher.get();
  const embedding::CachingEmbeddingModel* cache =
      resources.embedding_cache.get();
  auto candidate = std::make_shared<ModelGeneration>(
      matcher, cache, options_.property_cache_capacity,
      options_.property_cache_shards, std::move(info),
      std::move(resources));

  // Stage 3: shadow-score the captured live sample on both generations.
  std::vector<PropertyPairSpec> sample;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sample = canary_ring_;
  }
  *divergence = 0.0;
  *canary_pairs = sample.size();
  if (!sample.empty()) {
    const StatusOr<std::vector<double>> current_scores =
        ShadowScore(current, sample);
    if (!current_scores.ok()) {
      return Status::Internal(
          "canary could not score the live sample on the serving "
          "generation: " +
          current_scores.status().ToString());
    }
    LEAPME_ASSIGN_OR_RETURN(const std::vector<double> candidate_scores,
                            ShadowScore(*candidate, sample));
    for (size_t i = 0; i < sample.size(); ++i) {
      *divergence = std::max(
          *divergence,
          std::abs(candidate_scores[i] - current_scores.value()[i]));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_canary_divergence_ = *divergence;
    }
    if (*divergence > options_.canary_threshold) {
      return Status::FailedPrecondition(StrFormat(
          "canary rejected candidate %s: max score divergence %.6f over "
          "%zu live pairs exceeds the %.6f threshold",
          path.c_str(), *divergence, sample.size(),
          options_.canary_threshold));
    }
  }

  // Stage 4: catalog-index mode rebuilds the index on the candidate's
  // own matcher + embedding cache.
  LEAPME_RETURN_IF_ERROR(AttachCatalogToGeneration(*candidate));
  return candidate;
}

StatusOr<ReloadOutcome> ModelRegistry::Reload(const std::string& path) {
  if (!loader_) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reloads_rejected_;
    return Status::FailedPrecondition(
        "this server cannot hot-reload: the registry wraps a fixed "
        "in-process model (no loader)");
  }
  std::unique_lock<std::mutex> reload_lock(reload_mu_, std::try_to_lock);
  if (!reload_lock.owns_lock()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reloads_rejected_;
    return Status::Unavailable("another reload is already in progress");
  }
  std::shared_ptr<const ModelGeneration> current = Acquire();
  if (current == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reloads_rejected_;
    return Status::FailedPrecondition("registry is not initialized");
  }
  const std::string target = path.empty() ? current->info().path : path;
  if (target.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reloads_rejected_;
    return Status::InvalidArgument(
        "no model path: the serving generation was not loaded from a "
        "file, pass an explicit path");
  }

  reload_in_progress_.store(true, std::memory_order_relaxed);
  double divergence = 0.0;
  size_t canary_pairs = 0;
  StatusOr<std::shared_ptr<ModelGeneration>> candidate =
      BuildCandidate(target, *current, &divergence, &canary_pairs);
  reload_in_progress_.store(false, std::memory_order_relaxed);
  if (!candidate.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++reloads_rejected_;
    LEAPME_LOG(Warning) << "reload of " << target
                        << " rejected: " << candidate.status().ToString()
                        << " (still serving generation "
                        << current->info().version << ")";
    return candidate.status();
  }

  // Stage 5: publish. The swap is a shared_ptr assignment under mu_ —
  // in-flight requests keep the generation they acquired.
  ReloadOutcome outcome;
  outcome.canary_divergence = divergence;
  outcome.canary_pairs = canary_pairs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    (*candidate)->set_version(next_version_++);
    previous_ = std::move(current_);
    current_ = std::move(candidate).value();
    ++reloads_ok_;
    // Fresh probation: the trip judges only post-swap outcomes.
    std::fill(outcome_window_.begin(), outcome_window_.end(), 0);
    outcome_pos_ = 0;
    outcome_count_ = 0;
    outcome_errors_ = 0;
    outcomes_since_swap_ = 0;
    probation_ = options_.rollback_error_rate > 0.0;
    outcome.info = current_->info();
  }
  return outcome;
}

void ModelRegistry::CapturePair(const PropertyPairSpec& pair) {
  if (options_.canary_capacity == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (canary_ring_.size() < options_.canary_capacity) {
    canary_ring_.push_back(pair);
  } else {
    canary_ring_[canary_pos_] = pair;
  }
  canary_pos_ = (canary_pos_ + 1) % options_.canary_capacity;
}

void ModelRegistry::RecordOutcome(bool model_fault) {
  std::shared_ptr<const ModelGeneration> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint8_t bit = model_fault ? 1 : 0;
    if (outcome_count_ < outcome_window_.size()) {
      ++outcome_count_;
    } else {
      outcome_errors_ -= outcome_window_[outcome_pos_];
    }
    outcome_window_[outcome_pos_] = bit;
    outcome_errors_ += bit;
    outcome_pos_ = (outcome_pos_ + 1) % outcome_window_.size();
    if (!probation_) {
      return;
    }
    ++outcomes_since_swap_;
    const double error_rate =
        static_cast<double>(outcome_errors_) /
        static_cast<double>(outcome_count_);
    if (previous_ != nullptr &&
        outcomes_since_swap_ >= options_.rollback_min_samples &&
        error_rate > options_.rollback_error_rate) {
      // Trip: republish the retained previous generation (its original
      // version number makes the rollback visible in stats).
      LEAPME_LOG(Warning)
          << "post-swap error rate " << error_rate << " over "
          << outcome_count_ << " outcomes tripped the "
          << options_.rollback_error_rate
          << " rollback threshold; rolling back from generation "
          << current_->info().version << " to generation "
          << previous_->info().version;
      release = std::move(current_);
      current_ = std::move(previous_);
      previous_.reset();
      probation_ = false;
      ++reloads_rolled_back_;
      std::fill(outcome_window_.begin(), outcome_window_.end(), 0);
      outcome_pos_ = 0;
      outcome_count_ = 0;
      outcome_errors_ = 0;
    } else if (outcomes_since_swap_ >= 2 * outcome_window_.size()) {
      // Probation survived: release the retained generation.
      release = std::move(previous_);
      probation_ = false;
    }
  }
  // `release` destroys the generation outside mu_ (feature caches and
  // catalog features can be large).
}

RegistryStats ModelRegistry::Snapshot() const {
  RegistryStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr) {
    stats.info = current_->info();
  }
  stats.reloads_ok = reloads_ok_;
  stats.reloads_rejected = reloads_rejected_;
  stats.reloads_rolled_back = reloads_rolled_back_;
  stats.canary_divergence = last_canary_divergence_;
  stats.reload_in_progress =
      reload_in_progress_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace leapme::serve
