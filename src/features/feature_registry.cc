#include "features/feature_registry.h"

#include <algorithm>
#include <cmath>

#include "common/kernels/kernels.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "text/char_class.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"

namespace leapme::features {

void FeatureStage::ExtractInstance(const StageContext& /*ctx*/,
                                   std::string_view /*value*/,
                                   std::span<float> out) const {
  // Only instance-derived stages (instance_width > 0) are ever asked for
  // per-instance blocks.
  LEAPME_CHECK_EQ(out.size(), 0u);
}

namespace {

constexpr const char* kCharClassNames[] = {
    "upper", "lower", "letter_other", "mark", "number",
    "punct", "symbol", "separator", "other"};

constexpr const char* kTokenClassNames[] = {
    "word", "lower_word", "capitalized", "upper_word", "numeric"};

/// Element-wise property-block difference (Table I id 7): |v1 - v2| by
/// default, v1 - v2 with absolute_difference off.
void DiffBlock(const StageContext& ctx, std::span<const float> a,
               std::span<const float> b, std::span<float> out) {
  LEAPME_CHECK_EQ(a.size(), out.size());
  LEAPME_CHECK_EQ(b.size(), out.size());
  const kernels::KernelTable& kernel = kernels::Active();
  if (ctx.options->absolute_difference) {
    kernel.abs_diff(a.data(), b.data(), out.data(), out.size());
  } else {
    kernel.sub(a.data(), b.data(), out.data(), out.size());
  }
}

/// Base for stages whose property block is the mean of a per-instance
/// block over the property's (optionally capped) instance values, and
/// whose pair block is the property-block difference. Covers Table I
/// ids 1-5 / 7.
class InstanceAveragedStage : public FeatureStage {
 public:
  size_t property_width(size_t embedding_dim) const final {
    return instance_width(embedding_dim);
  }
  size_t pair_width(size_t embedding_dim) const final {
    return instance_width(embedding_dim);
  }

  void ComputeProperty(const StageContext& ctx, std::string_view /*name*/,
                       std::span<const std::string> values,
                       std::span<float> out) const final {
    size_t used = values.size();
    if (ctx.options->max_instances_per_property > 0) {
      used = std::min(used, ctx.options->max_instances_per_property);
    }
    if (used == 0) return;  // `out` is pre-zeroed by the pipeline
    const kernels::KernelTable& kernel = kernels::Active();
    std::vector<float> instance(out.size(), 0.0f);
    for (size_t i = 0; i < used; ++i) {
      ExtractInstance(ctx, values[i], instance);
      kernel.add(instance.data(), out.data(), out.size());
    }
    kernel.scale(1.0f / static_cast<float>(used), out.data(), out.size());
  }

  void ComputePair(const StageContext& ctx, const PreparedName& /*a_name*/,
                   const PreparedName& /*b_name*/,
                   std::span<const float> a_block,
                   std::span<const float> b_block,
                   std::span<float> out) const final {
    DiffBlock(ctx, a_block, b_block, out);
  }
};

/// Table I id 1: fraction & count of each of the 9 character classes.
class CharClassMetaStage final : public InstanceAveragedStage {
 public:
  std::string_view name() const override { return "char_class_meta"; }
  int version() const override { return 1; }
  size_t instance_width(size_t) const override {
    return FeatureSchema::kCharClassFeatures;
  }

  void DescribePairSlots(size_t, std::vector<FeatureSlot>* slots) const
      override {
    for (const char* cls : kCharClassNames) {
      slots->push_back({StrFormat("diff.char.%s.frac", cls),
                        FeatureOrigin::kInstance, false});
      slots->push_back({StrFormat("diff.char.%s.count", cls),
                        FeatureOrigin::kInstance, false});
    }
  }

  void ExtractInstance(const StageContext&, std::string_view value,
                       std::span<float> out) const override {
    const text::CharClassCounts counts = text::CountCharClasses(value);
    size_t offset = 0;
    for (size_t c = 0; c < text::kNumCharClasses; ++c) {
      auto cls = static_cast<text::CharClass>(c);
      out[offset++] = static_cast<float>(counts.fraction(cls));
      out[offset++] = static_cast<float>(counts.count(cls));
    }
  }
};

/// Table I id 2: fraction & count of each of the 5 token classes.
class TokenClassMetaStage final : public InstanceAveragedStage {
 public:
  std::string_view name() const override { return "token_class_meta"; }
  int version() const override { return 1; }
  size_t instance_width(size_t) const override {
    return FeatureSchema::kTokenClassFeatures;
  }

  void DescribePairSlots(size_t, std::vector<FeatureSlot>* slots) const
      override {
    for (const char* cls : kTokenClassNames) {
      slots->push_back({StrFormat("diff.token.%s.frac", cls),
                        FeatureOrigin::kInstance, false});
      slots->push_back({StrFormat("diff.token.%s.count", cls),
                        FeatureOrigin::kInstance, false});
    }
  }

  void ExtractInstance(const StageContext&, std::string_view value,
                       std::span<float> out) const override {
    const text::TokenClassCounts counts = text::CountTokenClasses(value);
    size_t offset = 0;
    for (size_t c = 0; c < text::kNumTokenClasses; ++c) {
      auto cls = static_cast<text::TokenClass>(c);
      out[offset++] = static_cast<float>(counts.fraction(cls));
      out[offset++] = static_cast<float>(counts.count(cls));
    }
  }
};

/// Table I id 3: numeric value of the instance (-1 when not a number).
class NumericValueStage final : public InstanceAveragedStage {
 public:
  std::string_view name() const override { return "numeric_value"; }
  int version() const override { return 1; }
  size_t instance_width(size_t) const override {
    return FeatureSchema::kNumericValueFeatures;
  }

  void DescribePairSlots(size_t, std::vector<FeatureSlot>* slots) const
      override {
    slots->push_back({"diff.numeric_value", FeatureOrigin::kInstance, false});
  }

  void ExtractInstance(const StageContext&, std::string_view value,
                       std::span<float> out) const override {
    std::optional<double> numeric = ParseDouble(value);
    out[0] = numeric ? static_cast<float>(*numeric) : -1.0f;
  }
};

/// Table I id 4: average embedding of the instance's words.
class ValueEmbeddingStage final : public InstanceAveragedStage {
 public:
  std::string_view name() const override { return "value_embedding"; }
  int version() const override { return 1; }
  size_t instance_width(size_t embedding_dim) const override {
    return embedding_dim;
  }

  void DescribePairSlots(size_t embedding_dim,
                         std::vector<FeatureSlot>* slots) const override {
    for (size_t i = 0; i < embedding_dim; ++i) {
      slots->push_back({StrFormat("diff.value_emb.%zu", i),
                        FeatureOrigin::kInstance, true});
    }
  }

  void ExtractInstance(const StageContext& ctx, std::string_view value,
                       std::span<float> out) const override {
    const std::vector<std::string> words = text::EmbeddingWords(value);
    embedding::Vector pooled = embedding::AverageEmbedding(*ctx.model, words);
    std::copy(pooled.begin(), pooled.end(), out.begin());
  }
};

/// Table I id 6: the average embedding of the property-name words
/// (name-derived, so no per-instance block).
class NameEmbeddingStage final : public FeatureStage {
 public:
  std::string_view name() const override { return "name_embedding"; }
  int version() const override { return 1; }
  size_t property_width(size_t embedding_dim) const override {
    return embedding_dim;
  }
  size_t pair_width(size_t embedding_dim) const override {
    return embedding_dim;
  }

  void DescribePairSlots(size_t embedding_dim,
                         std::vector<FeatureSlot>* slots) const override {
    for (size_t i = 0; i < embedding_dim; ++i) {
      slots->push_back(
          {StrFormat("diff.name_emb.%zu", i), FeatureOrigin::kName, true});
    }
  }

  void ComputeProperty(const StageContext& ctx, std::string_view name,
                       std::span<const std::string> /*values*/,
                       std::span<float> out) const override {
    embedding::Vector pooled =
        embedding::AverageEmbedding(*ctx.model, text::EmbeddingWords(name));
    std::copy(pooled.begin(), pooled.end(), out.begin());
  }

  void ComputePair(const StageContext& ctx, const PreparedName&,
                   const PreparedName&, std::span<const float> a_block,
                   std::span<const float> b_block,
                   std::span<float> out) const override {
    DiffBlock(ctx, a_block, b_block, out);
  }
};

/// Table I ids 8-15: the 8 string distances between the property names.
/// Pair-only — it owns no property slots. The edit distances run on the
/// name bytes (bit-parallel for names up to 64 bytes); the three q-gram
/// distances merge the names' prepared 3-gram profiles.
class StringDistancesStage final : public FeatureStage {
 public:
  std::string_view name() const override { return "string_distances"; }
  int version() const override { return 1; }
  size_t property_width(size_t) const override { return 0; }
  size_t pair_width(size_t) const override {
    return FeatureSchema::kStringDistanceFeatures;
  }

  void DescribePairSlots(size_t, std::vector<FeatureSlot>* slots) const
      override {
    for (const char* metric :
         {"osa", "levenshtein", "damerau_levenshtein", "lcs", "qgram3",
          "cosine3", "jaccard3", "jaro_winkler"}) {
      slots->push_back(
          {StrFormat("dist.%s", metric), FeatureOrigin::kName, false});
    }
  }

  void ComputeProperty(const StageContext&, std::string_view,
                       std::span<const std::string>,
                       std::span<float> out) const override {
    LEAPME_CHECK_EQ(out.size(), 0u);
  }

  void ComputePair(const StageContext& ctx, const PreparedName& a,
                   const PreparedName& b, std::span<const float>,
                   std::span<const float>, std::span<float> out) const
      override {
    const std::string_view n1 = a.text;
    const std::string_view n2 = b.text;
    size_t offset = 0;
    if (ctx.options->normalize_string_distances) {
      out[offset++] = static_cast<float>(text::NormalizedByMaxLength(
          text::OptimalStringAlignment(n1, n2), n1, n2));
      out[offset++] = static_cast<float>(
          text::NormalizedByMaxLength(text::Levenshtein(n1, n2), n1, n2));
      out[offset++] = static_cast<float>(text::NormalizedByMaxLength(
          text::DamerauLevenshtein(n1, n2), n1, n2));
      out[offset++] = static_cast<float>(text::NormalizedByMaxLength(
          text::LcsDistance(n1, n2), n1, n2));
      // The q-gram count distance is normalized by the summed name
      // lengths in bytes, |n1| + |n2| (at least 1), not by a gram count.
      double total_bytes =
          std::max<double>(1.0, static_cast<double>(n1.size() + n2.size()));
      out[offset++] = static_cast<float>(
          text::QgramDistance(a.grams, b.grams) / total_bytes);
    } else {
      out[offset++] =
          static_cast<float>(text::OptimalStringAlignment(n1, n2));
      out[offset++] = static_cast<float>(text::Levenshtein(n1, n2));
      out[offset++] = static_cast<float>(text::DamerauLevenshtein(n1, n2));
      out[offset++] = static_cast<float>(text::LcsDistance(n1, n2));
      out[offset++] =
          static_cast<float>(text::QgramDistance(a.grams, b.grams));
    }
    out[offset++] =
        static_cast<float>(text::CosineDistance(a.grams, b.grams));
    out[offset++] =
        static_cast<float>(text::JaccardDistance(a.grams, b.grams));
    out[offset++] = static_cast<float>(text::JaroWinklerDistance(n1, n2));
    LEAPME_CHECK_EQ(offset, out.size());
  }
};

}  // namespace

FeatureRegistry::FeatureRegistry(
    std::vector<std::unique_ptr<const FeatureStage>> stages)
    : stages_(std::move(stages)) {
  views_.reserve(stages_.size());
  for (const auto& stage : stages_) {
    LEAPME_CHECK(stage != nullptr);
    LEAPME_CHECK(Find(stage->name()) == nullptr)
        << "duplicate feature stage '" << stage->name() << "'";
    views_.push_back(stage.get());
  }
}

const FeatureRegistry& FeatureRegistry::BuiltIn() {
  static const FeatureRegistry* registry = [] {
    std::vector<std::unique_ptr<const FeatureStage>> stages;
    stages.push_back(std::make_unique<CharClassMetaStage>());
    stages.push_back(std::make_unique<TokenClassMetaStage>());
    stages.push_back(std::make_unique<NumericValueStage>());
    stages.push_back(std::make_unique<ValueEmbeddingStage>());
    stages.push_back(std::make_unique<NameEmbeddingStage>());
    stages.push_back(std::make_unique<StringDistancesStage>());
    return new FeatureRegistry(std::move(stages));
  }();
  return *registry;
}

const FeatureStage* FeatureRegistry::Find(std::string_view name) const {
  for (const FeatureStage* stage : views_) {
    if (stage->name() == name) return stage;
  }
  return nullptr;
}

std::string FeatureRegistry::StageNames() const {
  std::string names;
  for (const FeatureStage* stage : views_) {
    if (!names.empty()) names.append(", ");
    names.append(stage->name());
  }
  return names;
}

std::vector<std::string> BuiltInStageNames() {
  std::vector<std::string> names;
  for (const FeatureStage* stage : FeatureRegistry::BuiltIn().stages()) {
    names.emplace_back(stage->name());
  }
  return names;
}

}  // namespace leapme::features
