#ifndef LEAPME_FEATURES_FEATURE_PIPELINE_H_
#define LEAPME_FEATURES_FEATURE_PIPELINE_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "embedding/embedding_model.h"
#include "features/feature_registry.h"
#include "features/feature_schema.h"
#include "nn/matrix.h"
#include "text/ngram.h"

namespace leapme::features {

/// Precomputed per-property state: the property feature vector (Table I
/// ids 5-6) plus the raw name and its 3-gram profile for the string
/// distances.
struct PropertyFeatures {
  std::string name;
  /// Layout: [29 meta means][d value-embedding mean][d name embedding];
  /// size = 29 + 2d.
  embedding::Vector vector;
  /// 3-gram profile of `name`: a side-car of the string-distance stage,
  /// not feature slots, so it leaves the schema untouched. About 4 bytes
  /// per name byte.
  text::GramProfile name_grams;

  PreparedName prepared_name() const { return {name, name_grams}; }
};

/// Cumulative per-stage instrumentation snapshot (see
/// FeaturePipeline::StageTimings).
struct StageTiming {
  std::string name;
  int version = 0;
  uint64_t property_calls = 0;  ///< property blocks computed
  uint64_t property_ns = 0;     ///< wall time spent in property blocks
  uint64_t pair_calls = 0;      ///< pair blocks computed
  uint64_t pair_ns = 0;         ///< wall time spent in pair blocks
};

/// End-to-end feature computation of Algorithm 1 steps 1-4: instance
/// features -> per-property aggregation -> pair features, composed from
/// the stages of a FeatureRegistry (the built-in registry by default).
class FeaturePipeline {
 public:
  /// `model` must outlive the pipeline. Uses FeatureRegistry::BuiltIn().
  FeaturePipeline(const embedding::EmbeddingModel* model,
                  PairFeatureOptions options = {});

  /// `model` and `registry` must outlive the pipeline.
  FeaturePipeline(const embedding::EmbeddingModel* model,
                  const FeatureRegistry* registry, PairFeatureOptions options);

  const FeatureSchema& schema() const { return schema_; }
  const PairFeatureOptions& options() const { return options_; }
  size_t pair_dimension() const { return schema_.size(); }
  size_t property_dimension() const { return schema_.property_dimension(); }

  /// Computes the property features of a property with surface name `name`
  /// and the given instance values (Algorithm 1 lines 2-5).
  PropertyFeatures ComputeProperty(
      std::string_view name, std::span<const std::string> values) const;

  /// Computes the pair feature vector (Algorithm 1 line 8 / Table I ids
  /// 7-15) into `out` (size = pair_dimension()).
  void ComputePair(const PropertyFeatures& a, const PropertyFeatures& b,
                   std::span<float> out) const;

  /// Convenience: builds the design matrix for a list of pairs, gathering
  /// only `columns` (from FeatureSchema::SelectedColumns or StageColumns).
  /// Empty `columns` keeps all features. A stage none of whose pair slots
  /// is selected is not run (nor counted in StageTimings). Rows are filled
  /// in parallel on the global thread pool (each row depends only on its
  /// own pair, so results are bit-identical at any thread count);
  /// `max_threads` caps the fan-out for this call (0 = pool width).
  nn::Matrix BuildDesignMatrix(
      const std::vector<const PropertyFeatures*>& lhs,
      const std::vector<const PropertyFeatures*>& rhs,
      const std::vector<size_t>& columns, size_t max_threads = 0) const;

  /// Cumulative per-stage call counts and wall times since construction,
  /// in stage composition order. Thread-safe; counters keep advancing
  /// while feature computation runs on other threads.
  std::vector<StageTiming> StageTimings() const;

 private:
  /// One slot per stage; mutable because extraction is logically const.
  struct StageCounters {
    Counter property_calls;
    Counter property_ns;
    Counter pair_calls;
    Counter pair_ns;
  };

  StageContext Context() const { return StageContext{model_, &options_}; }

  const embedding::EmbeddingModel* model_;
  PairFeatureOptions options_;
  FeatureSchema schema_;
  mutable std::vector<StageCounters> counters_;
};

}  // namespace leapme::features

#endif  // LEAPME_FEATURES_FEATURE_PIPELINE_H_
