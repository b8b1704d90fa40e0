#include "eval/importance.h"

#include <algorithm>

#include "common/rng.h"
#include "core/leapme.h"
#include "data/splitting.h"
#include "features/feature_schema.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "nn/trainer.h"

namespace leapme::eval {

namespace {

struct ColumnGroup {
  std::string name;
  size_t begin;  // [begin, end) in pair-feature layout
  size_t end;
};

// One group per registered feature stage: the ablation unit is the
// stage's pair-column span, so new stages are covered automatically.
std::vector<ColumnGroup> PairFeatureGroups(
    const features::FeatureSchema& schema) {
  std::vector<ColumnGroup> groups;
  for (const features::StageSpan& span : schema.stages()) {
    groups.push_back({std::string(span.stage->name()), span.pair_begin,
                      span.pair_end});
  }
  return groups;
}

double F1At(const std::vector<double>& scores,
            const std::vector<int32_t>& labels, double threshold) {
  std::vector<int32_t> predictions(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    predictions[i] = scores[i] >= threshold ? 1 : 0;
  }
  return ml::ComputeQuality(predictions, labels).f1;
}

}  // namespace

StatusOr<std::vector<FeatureGroupImportance>> PermutationImportance(
    const EvalDataset& eval_dataset, const ImportanceOptions& options) {
  if (options.permutations == 0) {
    return Status::InvalidArgument("permutations must be positive");
  }
  const data::Dataset& dataset = eval_dataset.dataset;
  const embedding::EmbeddingModel& model = *eval_dataset.model;

  Rng rng(options.seed);
  data::SourceSplit split =
      data::SplitSources(dataset, options.train_fraction, rng);
  LEAPME_ASSIGN_OR_RETURN(
      std::vector<data::LabeledPair> train,
      data::BuildTrainingPairs(dataset, split.train_sources,
                               options.negative_ratio, rng));
  std::vector<data::LabeledPair> test =
      data::BuildTestPairs(dataset, split.train_sources);

  // Feature computation mirrors LeapmeMatcher (all features kept).
  features::FeaturePipeline pipeline(&model);
  std::vector<features::PropertyFeatures> properties;
  std::vector<std::string> values;
  for (data::PropertyId id = 0; id < dataset.property_count(); ++id) {
    values.clear();
    for (const auto& instance : dataset.instances(id)) {
      values.push_back(instance.value);
    }
    properties.push_back(
        pipeline.ComputeProperty(dataset.property(id).name, values));
  }
  auto design_for = [&](const std::vector<data::LabeledPair>& pairs) {
    std::vector<const features::PropertyFeatures*> lhs;
    std::vector<const features::PropertyFeatures*> rhs;
    for (const auto& labeled : pairs) {
      lhs.push_back(&properties[labeled.pair.a]);
      rhs.push_back(&properties[labeled.pair.b]);
    }
    return pipeline.BuildDesignMatrix(lhs, rhs, {});
  };

  nn::Matrix train_design = design_for(train);
  std::vector<int32_t> train_labels;
  for (const auto& labeled : train) train_labels.push_back(labeled.label);
  ml::StandardScaler scaler;
  LEAPME_RETURN_IF_ERROR(scaler.FitTransform(&train_design));

  Rng init_rng(options.seed ^ 0xabcdULL);
  nn::Mlp mlp =
      nn::BuildMlp(pipeline.pair_dimension(), {128, 64}, 2, init_rng);
  nn::Trainer trainer;
  LEAPME_RETURN_IF_ERROR(
      trainer.Fit(mlp, train_design, train_labels).status());

  nn::Matrix test_design = design_for(test);
  LEAPME_RETURN_IF_ERROR(scaler.Transform(&test_design));
  std::vector<int32_t> test_labels;
  for (const auto& labeled : test) test_labels.push_back(labeled.label);

  auto score = [&](const nn::Matrix& design) {
    nn::Matrix probabilities;
    // Infer in batches to bound the transient softmax matrix.
    std::vector<double> scores;
    scores.reserve(design.rows());
    constexpr size_t kBatch = 8192;
    for (size_t start = 0; start < design.rows(); start += kBatch) {
      size_t end = std::min(start + kBatch, design.rows());
      nn::Matrix chunk = design.RowSlice(start, end);
      mlp.Infer(chunk, &probabilities);
      for (size_t i = 0; i < probabilities.rows(); ++i) {
        scores.push_back(probabilities(i, 1));
      }
    }
    return scores;
  };

  const double baseline_f1 = F1At(score(test_design), test_labels, 0.5);

  std::vector<FeatureGroupImportance> importances;
  for (const ColumnGroup& group : PairFeatureGroups(pipeline.schema())) {
    double permuted_sum = 0.0;
    for (size_t rep = 0; rep < options.permutations; ++rep) {
      nn::Matrix permuted = test_design;
      // One row permutation applied to every column of the group keeps
      // within-group correlations intact while breaking the link to the
      // labels.
      std::vector<size_t> order(permuted.rows());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng perm_rng(options.seed + 1000 * rep + group.begin);
      perm_rng.Shuffle(order);
      for (size_t r = 0; r < permuted.rows(); ++r) {
        for (size_t c = group.begin; c < group.end; ++c) {
          permuted(r, c) = test_design(order[r], c);
        }
      }
      permuted_sum += F1At(score(permuted), test_labels, 0.5);
    }
    FeatureGroupImportance importance;
    importance.group = group.name;
    importance.columns = group.end - group.begin;
    importance.baseline_f1 = baseline_f1;
    importance.permuted_f1 =
        permuted_sum / static_cast<double>(options.permutations);
    importance.f1_drop = baseline_f1 - importance.permuted_f1;
    importances.push_back(importance);
  }
  std::sort(importances.begin(), importances.end(),
            [](const FeatureGroupImportance& a,
               const FeatureGroupImportance& b) {
              return a.f1_drop > b.f1_drop;
            });
  return importances;
}

}  // namespace leapme::eval
