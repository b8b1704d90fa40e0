#ifndef LEAPME_FEATURES_FEATURE_REGISTRY_H_
#define LEAPME_FEATURES_FEATURE_REGISTRY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "embedding/embedding_model.h"
#include "features/feature_schema.h"
#include "text/ngram.h"

namespace leapme::features {

/// Everything a stage may read while computing: the embedding model and
/// the pair-feature options of the owning pipeline. Stages hold no state
/// of their own, so one stage instance can serve many pipelines.
struct StageContext {
  const embedding::EmbeddingModel* model = nullptr;
  const PairFeatureOptions* options = nullptr;
};

/// A property name as the pair stages see it: its bytes plus its 3-gram
/// profile. FeaturePipeline::ComputeProperty prepares the profile once per
/// property (PropertyFeatures keeps it beside the feature vector), so no
/// stage rebuilds it per pair.
struct PreparedName {
  std::string_view text;
  const text::GramProfile& grams;
};

/// One named, versioned extractor stage of the feature pipeline.
///
/// A stage owns a contiguous block of the per-property feature vector
/// (`property_width` slots, possibly 0 for pair-only stages such as the
/// name string distances) and a contiguous block of the pair feature
/// vector (`pair_width` slots). The FeatureSchema assigns the concrete
/// offsets by composing the registry's stages in registration order.
///
/// `version()` is a content version: bump it whenever the stage's
/// computed values change (new formula, different normalization, ...),
/// so schema fingerprints of old persisted models stop matching and
/// loaders refuse to mis-score instead of silently drifting.
class FeatureStage {
 public:
  virtual ~FeatureStage() = default;

  virtual std::string_view name() const = 0;
  virtual int version() const = 0;

  /// Slots this stage writes per instance value (0 when the stage does
  /// not derive from instance values). Instance-derived stages average
  /// these per-instance blocks into their property block.
  virtual size_t instance_width(size_t /*embedding_dim*/) const { return 0; }
  /// Slots this stage owns in the per-property vector (0 = pair-only).
  virtual size_t property_width(size_t embedding_dim) const = 0;
  /// Slots this stage owns in the pair vector.
  virtual size_t pair_width(size_t embedding_dim) const = 0;

  /// Appends the FeatureSlot metadata of the stage's pair slots, in slot
  /// order (exactly pair_width entries).
  virtual void DescribePairSlots(size_t embedding_dim,
                                 std::vector<FeatureSlot>* slots) const = 0;

  /// Writes the per-instance block for one value (instance-derived stages
  /// only; `out` has instance_width slots).
  virtual void ExtractInstance(const StageContext& ctx,
                               std::string_view value,
                               std::span<float> out) const;

  /// Writes the stage's property block (`out` has property_width slots,
  /// pre-zeroed) for a property with surface name `name` and the given
  /// instance values.
  virtual void ComputeProperty(const StageContext& ctx,
                               std::string_view name,
                               std::span<const std::string> values,
                               std::span<float> out) const = 0;

  /// Writes the stage's pair block. `a_block`/`b_block` are the two
  /// properties' blocks of this stage (empty for pair-only stages);
  /// `a_name`/`b_name` are the prepared surface names.
  virtual void ComputePair(const StageContext& ctx,
                           const PreparedName& a_name,
                           const PreparedName& b_name,
                           std::span<const float> a_block,
                           std::span<const float> b_block,
                           std::span<float> out) const = 0;
};

/// An ordered, immutable set of feature stages. Composition order is
/// registration order; it fixes the slot layout of every schema derived
/// from the registry.
class FeatureRegistry {
 public:
  explicit FeatureRegistry(
      std::vector<std::unique_ptr<const FeatureStage>> stages);

  FeatureRegistry(const FeatureRegistry&) = delete;
  FeatureRegistry& operator=(const FeatureRegistry&) = delete;

  /// The built-in LEAPME stage set, reproducing Table I exactly:
  ///   char_class_meta, token_class_meta, numeric_value, value_embedding,
  ///   name_embedding, string_distances.
  /// Process-wide singleton; stages are stateless and thread-safe.
  static const FeatureRegistry& BuiltIn();

  const std::vector<const FeatureStage*>& stages() const { return views_; }
  size_t size() const { return views_.size(); }

  /// The stage named `name`, or nullptr when not registered.
  const FeatureStage* Find(std::string_view name) const;

  /// Comma-separated stage names, for error messages and --help text.
  std::string StageNames() const;

 private:
  std::vector<std::unique_ptr<const FeatureStage>> stages_;
  std::vector<const FeatureStage*> views_;
};

/// The names of the built-in stages, in composition order.
std::vector<std::string> BuiltInStageNames();

}  // namespace leapme::features

#endif  // LEAPME_FEATURES_FEATURE_REGISTRY_H_
