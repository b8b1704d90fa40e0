#ifndef LEAPME_SERVE_MODEL_REGISTRY_H_
#define LEAPME_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocking/candidate_pipeline.h"
#include "common/cache/sharded_cache.h"
#include "common/status.h"
#include "common/status_or.h"
#include "core/leapme.h"
#include "data/dataset.h"
#include "embedding/caching_model.h"
#include "serve/protocol.h"

namespace leapme::serve {

/// Identity of one loaded model generation, surfaced through the stats /
/// health / ready / reload ops so operators can tell which model a
/// running server answers with.
struct ModelInfo {
  /// Monotonic per-registry generation number; 1 is the startup model.
  /// A rollback restores the previous generation *with its original
  /// number*, so a version that goes backwards is visible as a rollback.
  uint64_t version = 0;
  /// Feature-schema fingerprint of the generation's pipeline.
  std::string fingerprint;
  /// On-disk `leapme-matcher N` format the model was restored from
  /// (2 for in-process fits that were never persisted).
  int format_version = 0;
  /// Source model file ("" for generations wrapped from live objects).
  std::string path;
  /// mtime of `path` at load time, unix seconds (0 = unknown).
  int64_t file_mtime = 0;
};

/// Modification time of `path` in unix seconds; 0 when the file cannot
/// be stat'ed. Used for ModelInfo and `--model-watch` polling.
int64_t FileMtimeSeconds(const std::string& path);

/// The serving-admission checks shared by every way a model enters a
/// registry (Init, WrapExisting, staged reload): refuses a null/unfitted
/// matcher and an embedding cache whose dimension disagrees with the
/// matcher's feature pipeline. (A fingerprint-mismatched model never
/// reaches this point — LoadModel already refuses it.)
Status ValidateServingModel(
    const core::LeapmeMatcher* matcher,
    const embedding::CachingEmbeddingModel* embedding_cache);

/// One immutable bundle of serving state: a fitted matcher, the
/// embedding cache it computes through, a *fresh* property-feature
/// cache, and (in catalog-index mode) the catalog's blocker index plus
/// precomputed per-property features.
///
/// Generations are handed out as shared_ptr<const ModelGeneration>
/// (ModelRegistry::Acquire) and every in-flight request keeps the one it
/// started with, so a hot swap never invalidates state under a running
/// batch and an old generation is destroyed exactly when its last
/// request drops the reference. The property cache is internally
/// synchronized, so mutating it through a const generation is safe.
class ModelGeneration {
 public:
  using FeaturePtr = std::shared_ptr<const features::PropertyFeatures>;

  /// Owned storage for registry-loaded generations. The matcher holds a
  /// raw pointer to the embedding cache, which wraps the base model, so
  /// the three live and die together inside one generation.
  struct Resources {
    std::unique_ptr<embedding::EmbeddingModel> base_model;
    std::unique_ptr<embedding::CachingEmbeddingModel> embedding_cache;
    std::unique_ptr<core::LeapmeMatcher> matcher;
  };

  /// `matcher` (and `embedding_cache`, when given) must outlive the
  /// generation unless they are owned by `owned`. `embedding_cache` may
  /// be null (no embedding-cache stats).
  ModelGeneration(const core::LeapmeMatcher* matcher,
                  const embedding::CachingEmbeddingModel* embedding_cache,
                  size_t property_cache_capacity,
                  size_t property_cache_shards, ModelInfo info,
                  Resources owned = {});

  ModelGeneration(const ModelGeneration&) = delete;
  ModelGeneration& operator=(const ModelGeneration&) = delete;

  const core::LeapmeMatcher& matcher() const { return *matcher_; }
  const embedding::CachingEmbeddingModel* embedding_cache() const {
    return embedding_cache_;
  }
  cache::ShardedCache<FeaturePtr>& property_cache() const {
    return property_cache_;
  }
  const ModelInfo& info() const { return info_; }
  /// The registry assigns the generation number at publish time (under
  /// its lock), after the candidate has survived admission.
  void set_version(uint64_t version) { info_.version = version; }

  /// Builds the blocker index over `catalog` with `pipeline`, which the
  /// generation takes over, and precomputes every catalog property's
  /// feature vector with this generation's matcher. Not thread-safe;
  /// call before the generation starts serving.
  Status AttachCatalog(const data::Dataset* catalog,
                       std::unique_ptr<blocking::CandidatePipeline> pipeline);

  const data::Dataset* catalog() const { return catalog_; }
  blocking::CandidatePipeline* catalog_pipeline() const {
    return catalog_pipeline_.get();
  }
  const std::vector<FeaturePtr>& catalog_features() const {
    return catalog_features_;
  }

 private:
  Resources owned_;
  const core::LeapmeMatcher* matcher_;
  const embedding::CachingEmbeddingModel* embedding_cache_;
  // Per-generation: a swapped-in model must never serve feature vectors
  // computed by its predecessor, so the cache starts cold.
  mutable cache::ShardedCache<FeaturePtr> property_cache_;
  ModelInfo info_;

  const data::Dataset* catalog_ = nullptr;
  std::unique_ptr<blocking::CandidatePipeline> catalog_pipeline_;
  std::vector<FeaturePtr> catalog_features_;
};

struct RegistryOptions {
  /// Entries kept in each generation's property-feature cache (rounded
  /// up to the sharded cache's power-of-two bucket grid).
  size_t property_cache_capacity = 4096;
  /// Partitions of the property-feature cache. 0 takes the count from
  /// LEAPME_CACHE_SHARDS (default 16); `leapme serve` exposes it as
  /// --cache-shards.
  size_t property_cache_shards = 0;
  /// Largest |candidate - current| score difference the shadow canary
  /// tolerates on any captured live pair. Scores live in [0, 1], so 1.0
  /// disables the divergence check (canary errors still reject).
  double canary_threshold = 0.5;
  /// Live pairs retained in the canary capture ring.
  size_t canary_capacity = 64;
  /// Post-swap trip: when the error fraction over the sliding outcome
  /// window exceeds this during probation, the swap is rolled back to
  /// the retained previous generation. 0 disables the trip.
  double rollback_error_rate = 0.0;
  /// Scoring outcomes in the sliding window; probation lasts
  /// 2 * rollback_window outcomes after a swap, after which the previous
  /// generation is released.
  size_t rollback_window = 128;
  /// Outcomes required after a swap before the trip may fire (so one
  /// early error cannot roll back a healthy model).
  size_t rollback_min_samples = 16;
};

/// What a successful reload reports back.
struct ReloadOutcome {
  ModelInfo info;
  /// Largest |candidate - current| score difference over the shadow-
  /// scored sample (0 when the capture ring was empty).
  double canary_divergence = 0.0;
  /// Pairs the canary shadow-scored on both generations.
  size_t canary_pairs = 0;
};

/// Registry counters and current identity for the stats op.
struct RegistryStats {
  ModelInfo info;
  uint64_t reloads_ok = 0;
  uint64_t reloads_rejected = 0;
  uint64_t reloads_rolled_back = 0;
  /// Divergence measured by the most recent canary run (accepted or not).
  double canary_divergence = 0.0;
  bool reload_in_progress = false;
};

/// Versioned owner of the serving model with RCU-style hand-out and a
/// staged admission pipeline for hot reloads (DESIGN.md §18).
///
/// Request path: Acquire() copies the current generation's shared_ptr
/// under a small mutex; the request (and every micro-batched pair it
/// enqueues) holds that reference until it finishes, so concurrent
/// swaps are invisible to in-flight work and scores are bit-identical
/// to a fixed-model server at any reload schedule.
///
/// Reload path (serialized; a concurrent attempt is rejected):
///   1. load  — the Loader builds a sidecar (base embeddings + cache +
///              LoadModel), nothing shared with the serving generation;
///   2. check — ValidateServingModel, the same gate Init applies;
///   3. canary — shadow-score the captured sample of recent live pairs
///              on both generations; reject on error or divergence
///              beyond canary_threshold;
///   4. catalog — rebuild the blocker index + precomputed features when
///              catalog-index mode is configured;
///   5. swap  — publish the candidate, retain the old generation, and
///              enter probation: if the sliding-window error rate of
///              scoring outcomes trips rollback_error_rate, the old
///              generation is republished (reloads_rolled_back).
/// A failure at any stage leaves the serving generation untouched and
/// increments reloads_rejected.
///
/// Thread-safe: Acquire/CapturePair/RecordOutcome are request-path safe,
/// Reload may run from any thread (signal tick or the service's reload
/// thread).
class ModelRegistry {
 public:
  /// Builds the owned resources of one candidate generation from a model
  /// path. Supplied by the entry point so the registry stays agnostic of
  /// embedding construction (flags, domains, dimensions).
  using Loader =
      std::function<StatusOr<ModelGeneration::Resources>(const std::string&)>;

  explicit ModelRegistry(Loader loader, RegistryOptions options = {});

  /// Wraps externally owned objects as generation 1 — the in-process
  /// embedder path (tests, benches). `matcher` (fitted) and
  /// `embedding_cache` (may be null: no embedding-cache stats, and a
  /// catalog spec that needs embeddings fails to parse) must outlive the
  /// registry. Runs ValidateServingModel, so a null or unfitted matcher
  /// or a cache of the wrong dimension is refused here instead of
  /// serving wrong scores. Reload requires a Loader, so a wrapped
  /// registry serves a fixed model.
  static StatusOr<std::unique_ptr<ModelRegistry>> WrapExisting(
      const core::LeapmeMatcher* matcher,
      const embedding::CachingEmbeddingModel* embedding_cache,
      RegistryOptions options = {});

  /// Loads and validates the startup generation. Must succeed (exactly
  /// once) before the registry serves.
  Status Init(const std::string& path);

  /// Catalog-index mode: parses `blocking_spec` against the current
  /// generation's embedding cache, indexes `catalog`, and remembers both
  /// so every future reload rebuilds the index on its own generation.
  /// `catalog` must outlive the registry. Call after Init (or
  /// WrapExisting), before serving.
  Status AttachCatalog(const data::Dataset* catalog,
                       const std::string& blocking_spec);

  /// The serving generation. Never null after a successful Init /
  /// WrapExisting. Hold the returned pointer for the whole request.
  std::shared_ptr<const ModelGeneration> Acquire() const;

  /// Runs the staged admission pipeline on `path` ("" reloads the
  /// current generation's path). Returns the new identity on success; a
  /// failure at any stage leaves serving untouched and is counted.
  StatusOr<ReloadOutcome> Reload(const std::string& path = "");

  /// Records one live pair into the canary capture ring (the request
  /// path calls this on score/topk/index traffic).
  void CapturePair(const PropertyPairSpec& pair);

  /// Records one scoring outcome for the post-swap error-rate trip.
  /// `model_fault` should be true only for errors that indict the model
  /// (not client mistakes or load shedding). May roll back.
  void RecordOutcome(bool model_fault);

  /// True while a reload is between load and swap/reject — the `ready`
  /// op reports not-ready so load balancers pause new traffic.
  bool reload_in_progress() const {
    return reload_in_progress_.load(std::memory_order_relaxed);
  }

  RegistryStats Snapshot() const;

  const RegistryOptions& options() const { return options_; }

 private:
  /// Stages 1–4: builds a validated, catalog-attached candidate. Fills
  /// `divergence`/`canary_pairs` from the shadow-scoring stage.
  StatusOr<std::shared_ptr<ModelGeneration>> BuildCandidate(
      const std::string& path, const ModelGeneration& current,
      double* divergence, size_t* canary_pairs);

  /// Shadow-scores `sample` on one generation (directly, bypassing the
  /// micro-batcher — ScoreFeaturePairs is bit-identical at any batching).
  static StatusOr<std::vector<double>> ShadowScore(
      const ModelGeneration& generation,
      const std::vector<PropertyPairSpec>& sample);

  Status AttachCatalogToGeneration(ModelGeneration& generation) const;

  const Loader loader_;
  const RegistryOptions options_;

  // Serializes reloads end-to-end; the publish itself happens under mu_.
  std::mutex reload_mu_;
  std::atomic<bool> reload_in_progress_{false};

  mutable std::mutex mu_;
  std::shared_ptr<const ModelGeneration> current_;
  // Retained during probation for the rollback trip.
  std::shared_ptr<const ModelGeneration> previous_;
  uint64_t next_version_ = 1;

  // Canary capture ring (mu_): most recent live pairs, overwritten
  // round-robin.
  std::vector<PropertyPairSpec> canary_ring_;
  size_t canary_pos_ = 0;

  // Sliding outcome window (mu_): one bit per recent scoring outcome.
  std::vector<uint8_t> outcome_window_;
  size_t outcome_pos_ = 0;
  size_t outcome_count_ = 0;
  size_t outcome_errors_ = 0;
  bool probation_ = false;
  size_t outcomes_since_swap_ = 0;

  // Counters (mu_).
  uint64_t reloads_ok_ = 0;
  uint64_t reloads_rejected_ = 0;
  uint64_t reloads_rolled_back_ = 0;
  double last_canary_divergence_ = 0.0;

  // Catalog-index configuration for per-generation rebuilds (set once by
  // AttachCatalog, read by reloads).
  const data::Dataset* catalog_ = nullptr;
  std::string catalog_spec_;
};

}  // namespace leapme::serve

#endif  // LEAPME_SERVE_MODEL_REGISTRY_H_
