#ifndef LEAPME_CORE_LEAPME_H_
#define LEAPME_CORE_LEAPME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocking/candidate_pipeline.h"
#include "common/status_or.h"
#include "data/dataset.h"
#include "data/splitting.h"
#include "embedding/embedding_model.h"
#include "features/feature_pipeline.h"
#include "graph/similarity_graph.h"
#include "ml/scaler.h"
#include "nn/mlp.h"
#include "nn/trainer.h"

namespace leapme::core {

/// Configuration of the LEAPME matcher. Defaults reproduce the paper's
/// §IV-D setup: all features, hidden layers 128/64, batch 32, epochs
/// 10@1e-3 + 5@1e-4 + 5@1e-5, decision threshold 0.5 on the positive
/// softmax output.
struct LeapmeOptions {
  features::PairFeatureOptions pair_features;
  /// Which of the nine feature configurations to use (§V-A).
  features::FeatureConfig feature_config;
  /// Explicit registry-stage selection (--features=stage,stage). When
  /// non-empty it overrides `feature_config`: the classifier input is the
  /// union of the named stages' pair columns. Unknown names surface as an
  /// InvalidArgument from Fit.
  std::vector<std::string> feature_stages;
  nn::TrainerOptions trainer;
  std::vector<size_t> hidden_sizes = {128, 64};
  /// Dropout rate after each hidden ReLU (0 = the paper's configuration).
  double dropout_rate = 0.0;
  double decision_threshold = 0.5;
  /// Calibrate the decision threshold after training: hold out
  /// `calibration_fraction` of the training pairs, train on the rest, and
  /// replace `decision_threshold` with the best-F1 threshold on the
  /// holdout. Off (0) by default — the paper uses the fixed argmax
  /// threshold 0.5.
  double calibration_fraction = 0.0;
  /// Standardize features (z-score fitted on the training pairs) before
  /// training and inference. Raw LEAPME features mix [0,1] distances with
  /// unbounded counts and instance values; standardization keeps the
  /// network trainable across feature configurations.
  bool standardize_features = true;
  /// Seed for weight initialization (the trainer has its own shuffle seed).
  uint64_t seed = 1234;
  /// Rows scored per inference batch in ScorePairs / ScorePairsOn. Batches
  /// keep the transient design matrix small even for hundreds of thousands
  /// of candidate pairs, and are the unit of parallel scoring. The batch
  /// size only affects memory and scheduling, never scores. At 512 rows a
  /// batch's transient buffers (design matrix, hidden activations) total
  /// ~0.6 MB. At 4096 rows (~5 MB) small blocks cached between them kept
  /// the worker threads' malloc arenas from shrinking, and a 2-thread
  /// offline scoring loop's peak RSS grew about 3x.
  size_t score_batch_size = 512;
  /// Thread cap for this matcher's parallel work (per-property feature
  /// aggregation, design-matrix assembly, batched scoring). 0 = full
  /// process-wide pool width (--threads / LEAPME_THREADS / hardware);
  /// 1 = fully sequential. Results are bit-identical at any setting.
  size_t threads = 0;
};

/// Result of the two-step (blocking -> scoring) pipeline: the candidate
/// pairs a blocker selected and their scores, aligned by index.
struct BlockedScores {
  std::vector<data::PropertyPair> candidates;
  std::vector<double> scores;
};

/// LEAPME (Algorithm 1): supervised property matching with embedding and
/// instance features.
///
/// Usage:
///   LeapmeMatcher matcher(&model, options);
///   LEAPME_RETURN_IF_ERROR(matcher.Fit(dataset, training_pairs));
///   auto scores = matcher.ScorePairs(test_pairs);
///   auto graph = matcher.BuildSimilarityGraph(test_pairs);
class LeapmeMatcher {
 public:
  /// `model` must outlive the matcher.
  LeapmeMatcher(const embedding::EmbeddingModel* model,
                LeapmeOptions options = {});

  /// Algorithm 1 steps 1-5: computes instance/property features for every
  /// property of `dataset`, assembles pair features for the labeled
  /// `training_pairs`, and trains the neural classifier.
  Status Fit(const data::Dataset& dataset,
             const std::vector<data::LabeledPair>& training_pairs);

  /// Similarity score (positive-class softmax output) for each pair.
  /// Requires a successful Fit on the same dataset.
  StatusOr<std::vector<double>> ScorePairs(
      const std::vector<data::PropertyPair>& pairs);

  /// Hard 0/1 decisions at the configured threshold.
  StatusOr<std::vector<int32_t>> ClassifyPairs(
      const std::vector<data::PropertyPair>& pairs);

  /// Scores `pairs` and returns the similarity graph containing every pair
  /// whose score reaches the decision threshold (the paper's Sim output).
  StatusOr<graph::SimilarityGraph> BuildSimilarityGraph(
      const std::vector<data::PropertyPair>& pairs);

  /// The two-step pipeline, fitted-dataset flavor: candidate generation
  /// via `pipeline` followed by scoring only the candidates. `dataset`
  /// must be the dataset this matcher was Fit on. With the `all-pairs`
  /// passthrough blocker the candidate list equals
  /// dataset.AllCrossSourcePairs() and the scores are bit-identical to
  /// ScorePairs over that list — blocking never changes a score, only
  /// which pairs get one.
  StatusOr<BlockedScores> ScoreCandidates(
      const data::Dataset& dataset, blocking::CandidatePipeline& pipeline);

  /// The two-step pipeline over a foreign dataset (ScorePairsOn
  /// semantics: features computed on the fly, fitted scaler reused).
  /// This is the saved-model / transfer path.
  StatusOr<BlockedScores> ScoreCandidatesOn(
      const data::Dataset& dataset, blocking::CandidatePipeline& pipeline);

  /// Transfer matching: scores pairs of a *different* dataset with the
  /// classifier trained by Fit. Property features of `dataset` are
  /// computed on the fly against the same embedding model; the fitted
  /// feature scaler is reused. This is the §V transfer-learning setting:
  /// train on one product domain, match another.
  StatusOr<std::vector<double>> ScorePairsOn(
      const data::Dataset& dataset,
      const std::vector<data::PropertyPair>& pairs);

  /// Scores pairs of externally supplied, already-computed property
  /// features: row i pairs `*lhs[i]` with `*rhs[i]`. This is the online
  /// serving entry point — const and safe to call concurrently on one
  /// fitted/loaded matcher (it touches only the const inference path).
  /// Scores are bit-identical to ScorePairs/ScorePairsOn over the same
  /// properties at any batch split or thread count.
  StatusOr<std::vector<double>> ScoreFeaturePairs(
      const std::vector<const features::PropertyFeatures*>& lhs,
      const std::vector<const features::PropertyFeatures*>& rhs) const;

  /// ScoreFeaturePairs with graceful degradation: rows whose entry in
  /// `degraded_rows` is non-zero are scored with every embedding-derived
  /// column of the classifier input neutralized (imputed to the training
  /// mean when standardizing, zero otherwise), so a pair whose embedding
  /// lookups failed still gets a score from its instance/name features.
  /// Rows with a zero mask entry are bit-identical to the two-argument
  /// overload. `degraded_rows` may be null (no degradation) or must have
  /// lhs.size() entries.
  StatusOr<std::vector<double>> ScoreFeaturePairs(
      const std::vector<const features::PropertyFeatures*>& lhs,
      const std::vector<const features::PropertyFeatures*>& rhs,
      const std::vector<uint8_t>* degraded_rows) const;

  /// Computes the property features of one property exactly as Fit /
  /// ScorePairsOn would (same pipeline, same embedding model). Const and
  /// thread-safe; pair with ScoreFeaturePairs for online serving.
  features::PropertyFeatures ComputePropertyFeatures(
      std::string_view name, std::span<const std::string> values) const {
    return pipeline_.ComputeProperty(name, values);
  }

  /// Mean training loss per epoch of the last Fit.
  const std::vector<double>& training_losses() const {
    return training_losses_;
  }

  /// The active decision threshold (equals options().decision_threshold
  /// unless calibration replaced it during Fit).
  double decision_threshold() const { return decision_threshold_; }

  /// Width of the classifier input under the active feature config.
  size_t input_dimension() const { return columns_.size(); }

  const LeapmeOptions& options() const { return options_; }

  /// The feature pipeline this matcher computes with (schema, fingerprint,
  /// per-stage timings).
  const features::FeaturePipeline& pipeline() const { return pipeline_; }

  /// True after a successful Fit or LoadModel.
  bool fitted() const { return fitted_; }

  /// On-disk format version this matcher was restored from: 1 for legacy
  /// pre-fingerprint files, 2 for current files. A matcher that was
  /// fitted in-process (never persisted) reports the current format.
  int loaded_format_version() const { return loaded_format_version_; }

  /// Precomputed features of property `id` (valid after Fit).
  const features::PropertyFeatures& property_features(
      data::PropertyId id) const {
    return property_features_[id];
  }

  /// Persists the trained classifier (network weights, feature scaler,
  /// selected feature columns and decision threshold) to `path` in the
  /// `leapme-matcher 2` format, which records the feature-schema
  /// fingerprint. The cached per-dataset property features are not
  /// saved — a loaded matcher scores new datasets via ScorePairsOn.
  Status SaveModel(const std::string& path) const;

  /// Restores a matcher saved with SaveModel. `model` must have the same
  /// embedding dimension as at save time (FailedPrecondition otherwise).
  /// v2 files additionally prove their feature-schema fingerprint against
  /// the live pipeline's; a mismatch (e.g. a stage version bumped since
  /// the model was trained) is a FailedPrecondition, never a silent
  /// mis-score. v1 files (no fingerprint) still load with a warning.
  static StatusOr<LeapmeMatcher> LoadModel(
      const embedding::EmbeddingModel* model, const std::string& path);

 private:
  /// Builds the (masked) design matrix for a pair list.
  nn::Matrix DesignMatrix(const std::vector<data::PropertyPair>& pairs) const;

  const embedding::EmbeddingModel* model_;
  LeapmeOptions options_;
  features::FeaturePipeline pipeline_;
  std::vector<size_t> columns_;  // selected feature columns
  Status columns_error_ = Status::OK();  // deferred feature_stages error
  std::vector<features::PropertyFeatures> property_features_;
  size_t property_count_ = 0;
  ml::StandardScaler scaler_;
  nn::Mlp mlp_;
  double decision_threshold_ = 0.5;
  bool fitted_ = false;
  int loaded_format_version_ = 2;
  std::vector<double> training_losses_;
};

}  // namespace leapme::core

#endif  // LEAPME_CORE_LEAPME_H_
