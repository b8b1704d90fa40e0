#include "core/leapme.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "common/faults/fault_injector.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "ml/metrics.h"

namespace leapme::core {

namespace {

/// Upper bound on persisted vector lengths (feature columns, scaler
/// statistics). Real models stay orders of magnitude below this; counts
/// above it mean a corrupt or hostile file and must not drive a resize.
constexpr size_t kMaxPersistedVectorSize = 1 << 20;

}  // namespace

LeapmeMatcher::LeapmeMatcher(const embedding::EmbeddingModel* model,
                             LeapmeOptions options)
    : model_(model),
      options_(std::move(options)),
      pipeline_(model, options_.pair_features) {
  if (options_.feature_stages.empty()) {
    columns_ = pipeline_.schema().SelectedColumns(options_.feature_config);
  } else {
    // Stage-mask selection. A constructor cannot fail, so an unknown
    // stage name is deferred until Fit.
    StatusOr<std::vector<size_t>> columns =
        pipeline_.schema().StageColumns(options_.feature_stages);
    if (columns.ok()) {
      columns_ = std::move(columns).value();
    } else {
      columns_error_ = columns.status();
    }
  }
}

Status LeapmeMatcher::Fit(
    const data::Dataset& dataset,
    const std::vector<data::LabeledPair>& training_pairs) {
  if (training_pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  if (!columns_error_.ok()) {
    return columns_error_;
  }
  if (options_.calibration_fraction < 0.0 ||
      options_.calibration_fraction >= 1.0) {
    return Status::InvalidArgument("calibration_fraction must be in [0, 1)");
  }
  decision_threshold_ = options_.decision_threshold;
  if (columns_.empty()) {
    return Status::InvalidArgument(
        "feature config selects no features: " +
        options_.feature_config.ToString());
  }

  // Algorithm 1 steps 1-3: instance features and per-property aggregation
  // for every property of the dataset. Properties are independent, so the
  // loop fans out across the thread pool (each slot written exactly once).
  property_count_ = dataset.property_count();
  property_features_.assign(property_count_, {});
  ParallelFor(0, property_count_, /*grain=*/1, options_.threads,
              [&](size_t begin, size_t end) {
                std::vector<std::string> values;
                for (size_t id = begin; id < end; ++id) {
                  const auto& instances =
                      dataset.instances(static_cast<data::PropertyId>(id));
                  values.clear();
                  values.reserve(instances.size());
                  for (const data::InstanceValue& instance : instances) {
                    values.push_back(instance.value);
                  }
                  property_features_[id] = pipeline_.ComputeProperty(
                      dataset.property(static_cast<data::PropertyId>(id)).name,
                      values);
                }
              });

  // Step 4: pair features for the labeled pairs.
  std::vector<data::PropertyPair> pairs;
  std::vector<int32_t> labels;
  pairs.reserve(training_pairs.size());
  labels.reserve(training_pairs.size());
  for (const data::LabeledPair& labeled : training_pairs) {
    if (labeled.pair.a >= property_count_ ||
        labeled.pair.b >= property_count_) {
      return Status::InvalidArgument(
          StrFormat("training pair (%u, %u) out of range", labeled.pair.a,
                    labeled.pair.b));
    }
    pairs.push_back(labeled.pair);
    labels.push_back(labeled.label != 0 ? 1 : 0);
  }
  nn::Matrix design = DesignMatrix(pairs);
  if (options_.standardize_features) {
    LEAPME_RETURN_IF_ERROR(scaler_.FitTransform(&design));
  }

  // Step 5: train the classifier.
  Rng init_rng(options_.seed);
  mlp_ = nn::BuildMlp(columns_.size(), options_.hidden_sizes,
                      /*num_classes=*/2, init_rng);
  nn::Trainer trainer(options_.trainer);

  // Optional threshold calibration: hold out the tail of the (already
  // shuffled) pair list, train on the head, sweep thresholds on the
  // holdout, then adopt the best-F1 threshold.
  size_t train_rows = design.rows();
  size_t holdout_rows = 0;
  if (options_.calibration_fraction > 0.0) {
    holdout_rows = static_cast<size_t>(options_.calibration_fraction *
                                       static_cast<double>(design.rows()));
    holdout_rows = std::min(holdout_rows, design.rows() - 1);
    train_rows = design.rows() - holdout_rows;
  }
  if (holdout_rows == 0) {
    LEAPME_ASSIGN_OR_RETURN(training_losses_,
                            trainer.Fit(mlp_, design, labels));
    fitted_ = true;
    return Status::OK();
  }

  nn::Matrix train_design = design.RowSlice(0, train_rows);
  std::vector<int32_t> train_labels(labels.begin(),
                                    labels.begin() + train_rows);
  LEAPME_ASSIGN_OR_RETURN(training_losses_,
                          trainer.Fit(mlp_, train_design, train_labels));

  nn::Matrix holdout_design = design.RowSlice(train_rows, design.rows());
  std::vector<int32_t> holdout_labels(labels.begin() + train_rows,
                                      labels.end());
  nn::Matrix probabilities;
  mlp_.Infer(holdout_design, &probabilities);
  std::vector<double> holdout_scores(probabilities.rows());
  for (size_t i = 0; i < probabilities.rows(); ++i) {
    holdout_scores[i] = probabilities(i, 1);
  }
  ml::PrPoint best = ml::BestF1Point(holdout_scores, holdout_labels);
  if (best.f1 > 0.0) {
    decision_threshold_ = best.threshold;
  }
  fitted_ = true;
  return Status::OK();
}

nn::Matrix LeapmeMatcher::DesignMatrix(
    const std::vector<data::PropertyPair>& pairs) const {
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  lhs.reserve(pairs.size());
  rhs.reserve(pairs.size());
  for (const data::PropertyPair& pair : pairs) {
    lhs.push_back(&property_features_[pair.a]);
    rhs.push_back(&property_features_[pair.b]);
  }
  return pipeline_.BuildDesignMatrix(lhs, rhs, columns_, options_.threads);
}

StatusOr<std::vector<double>> LeapmeMatcher::ScoreFeaturePairs(
    const std::vector<const features::PropertyFeatures*>& lhs,
    const std::vector<const features::PropertyFeatures*>& rhs) const {
  return ScoreFeaturePairs(lhs, rhs, /*degraded_rows=*/nullptr);
}

StatusOr<std::vector<double>> LeapmeMatcher::ScoreFeaturePairs(
    const std::vector<const features::PropertyFeatures*>& lhs,
    const std::vector<const features::PropertyFeatures*>& rhs,
    const std::vector<uint8_t>* degraded_rows) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "ScoreFeaturePairs called before Fit/LoadModel");
  }
  if (lhs.size() != rhs.size()) {
    return Status::InvalidArgument(
        StrFormat("lhs/rhs size mismatch: %zu vs %zu", lhs.size(),
                  rhs.size()));
  }
  if (degraded_rows != nullptr && degraded_rows->size() != lhs.size()) {
    return Status::InvalidArgument(
        StrFormat("degraded mask size mismatch: %zu vs %zu pairs",
                  degraded_rows->size(), lhs.size()));
  }
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i] == nullptr || rhs[i] == nullptr) {
      return Status::InvalidArgument(
          StrFormat("null property features at row %zu", i));
    }
  }
  // Positions (within the selected columns) of embedding-derived slots —
  // the columns neutralized for degraded rows.
  std::vector<size_t> embedding_positions;
  if (degraded_rows != nullptr) {
    const features::FeatureSchema& schema = pipeline_.schema();
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (schema.slot(columns_[i]).is_embedding) {
        embedding_positions.push_back(i);
      }
    }
  }
  // Batches bound the transient design matrix and score in parallel; each
  // batch writes its own score range through the const inference path.
  const size_t batch = std::max<size_t>(1, options_.score_batch_size);
  std::vector<double> scores(lhs.size());
  LEAPME_RETURN_IF_ERROR(ParallelForStatus(
      0, lhs.size(), batch,
      [&](size_t start, size_t end) -> Status {
        std::vector<const features::PropertyFeatures*> chunk_lhs(
            lhs.begin() + start, lhs.begin() + end);
        std::vector<const features::PropertyFeatures*> chunk_rhs(
            rhs.begin() + start, rhs.begin() + end);
        nn::Matrix design = pipeline_.BuildDesignMatrix(
            chunk_lhs, chunk_rhs, columns_, options_.threads);
        if (options_.standardize_features) {
          LEAPME_RETURN_IF_ERROR(scaler_.Transform(&design));
        }
        // Degraded rows: neutralize the embedding columns after
        // standardization, so each masked feature sits at the training
        // mean (z = 0) instead of an out-of-distribution raw zero. Rows
        // without a mask entry are untouched and stay bit-identical.
        if (degraded_rows != nullptr) {
          for (size_t row = start; row < end; ++row) {
            if ((*degraded_rows)[row] == 0) continue;
            for (const size_t position : embedding_positions) {
              design(row - start, position) = 0.0f;
            }
          }
        }
        nn::Matrix probabilities;
        mlp_.Infer(design, &probabilities);
        for (size_t i = 0; i < probabilities.rows(); ++i) {
          scores[start + i] = probabilities(i, 1);  // positive-class output
        }
        return Status::OK();
      },
      options_.threads));
  return scores;
}

StatusOr<std::vector<double>> LeapmeMatcher::ScorePairs(
    const std::vector<data::PropertyPair>& pairs) {
  if (!fitted_) {
    return Status::FailedPrecondition("ScorePairs called before Fit");
  }
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  lhs.reserve(pairs.size());
  rhs.reserve(pairs.size());
  for (const data::PropertyPair& pair : pairs) {
    if (pair.a >= property_count_ || pair.b >= property_count_) {
      return Status::InvalidArgument(
          StrFormat("pair (%u, %u) out of range", pair.a, pair.b));
    }
    lhs.push_back(&property_features_[pair.a]);
    rhs.push_back(&property_features_[pair.b]);
  }
  return ScoreFeaturePairs(lhs, rhs);
}

StatusOr<std::vector<int32_t>> LeapmeMatcher::ClassifyPairs(
    const std::vector<data::PropertyPair>& pairs) {
  LEAPME_ASSIGN_OR_RETURN(std::vector<double> scores, ScorePairs(pairs));
  std::vector<int32_t> decisions(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    decisions[i] = scores[i] >= decision_threshold_ ? 1 : 0;
  }
  return decisions;
}

StatusOr<BlockedScores> LeapmeMatcher::ScoreCandidates(
    const data::Dataset& dataset, blocking::CandidatePipeline& pipeline) {
  BlockedScores result;
  LEAPME_ASSIGN_OR_RETURN(result.candidates, pipeline.Candidates(dataset));
  LEAPME_ASSIGN_OR_RETURN(result.scores, ScorePairs(result.candidates));
  return result;
}

StatusOr<std::vector<double>> LeapmeMatcher::ScorePairsOn(
    const data::Dataset& dataset,
    const std::vector<data::PropertyPair>& pairs) {
  if (!fitted_) {
    return Status::FailedPrecondition("ScorePairsOn called before Fit");
  }
  // Features for the foreign dataset's properties, in parallel as in Fit.
  std::vector<features::PropertyFeatures> foreign(dataset.property_count());
  ParallelFor(0, dataset.property_count(), /*grain=*/1, options_.threads,
              [&](size_t begin, size_t end) {
                std::vector<std::string> values;
                for (size_t id = begin; id < end; ++id) {
                  values.clear();
                  for (const data::InstanceValue& instance :
                       dataset.instances(static_cast<data::PropertyId>(id))) {
                    values.push_back(instance.value);
                  }
                  foreign[id] = pipeline_.ComputeProperty(
                      dataset.property(static_cast<data::PropertyId>(id)).name,
                      values);
                }
              });

  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  lhs.reserve(pairs.size());
  rhs.reserve(pairs.size());
  for (const data::PropertyPair& pair : pairs) {
    if (pair.a >= foreign.size() || pair.b >= foreign.size()) {
      return Status::InvalidArgument(
          StrFormat("pair (%u, %u) out of range", pair.a, pair.b));
    }
    lhs.push_back(&foreign[pair.a]);
    rhs.push_back(&foreign[pair.b]);
  }
  return ScoreFeaturePairs(lhs, rhs);
}

StatusOr<graph::SimilarityGraph> LeapmeMatcher::BuildSimilarityGraph(
    const std::vector<data::PropertyPair>& pairs) {
  LEAPME_ASSIGN_OR_RETURN(std::vector<double> scores, ScorePairs(pairs));
  graph::SimilarityGraph graph(property_count_);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] >= decision_threshold_) {
      graph.AddEdge(pairs[i].a, pairs[i].b, scores[i]);
    }
  }
  return graph;
}

Status LeapmeMatcher::SaveModel(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SaveModel called before Fit");
  }
  const std::optional<faults::FaultHit> fault =
      faults::FaultInjector::Global().Evaluate("model.save");
  if (fault.has_value() && fault->kind == faults::FaultKind::kError) {
    return Status::IoError("injected model.save failure: " + path);
  }
  const std::string mlp_path = path + ".mlp";
  LEAPME_RETURN_IF_ERROR(nn::SaveMlp(mlp_, mlp_path));

  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  // Threshold and scaler statistics must parse back to the exact same
  // values, so restored matchers score bit-identically to the original.
  out.precision(17);
  out << "leapme-matcher 2\n";
  out << "embedding_dim " << model_->dimension() << "\n";
  out << "fingerprint " << pipeline_.schema().fingerprint() << "\n";
  out << "threshold " << decision_threshold_ << "\n";
  out << "standardize " << (options_.standardize_features ? 1 : 0) << "\n";
  out << "absolute_diff "
      << (options_.pair_features.absolute_difference ? 1 : 0) << "\n";
  out << "normalize_distances "
      << (options_.pair_features.normalize_string_distances ? 1 : 0) << "\n";
  out << "max_instances "
      << options_.pair_features.max_instances_per_property << "\n";
  out << "origin " << static_cast<int>(options_.feature_config.origin)
      << "\n";
  out << "kinds " << static_cast<int>(options_.feature_config.kinds) << "\n";
  if (!options_.feature_stages.empty()) {
    out << "stages " << options_.feature_stages.size();
    for (const std::string& stage : options_.feature_stages) {
      out << " " << stage;
    }
    out << "\n";
  }
  out << "columns " << columns_.size();
  for (size_t column : columns_) {
    out << " " << column;
  }
  out << "\n";
  out << "scaler " << (scaler_.fitted() ? scaler_.mean().size() : 0) << "\n";
  if (scaler_.fitted()) {
    for (float value : scaler_.mean()) out << value << " ";
    out << "\n";
    for (float value : scaler_.stddev()) out << value << " ";
    out << "\n";
  }
  // End-of-file sentinel: a truncated tail can otherwise still parse (a
  // shortened final float is a valid float), so v2 loaders require this
  // marker to prove the file is complete.
  out << "end leapme\n";
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  if (fault.has_value() && (fault->kind == faults::FaultKind::kTruncate ||
                            fault->kind == faults::FaultKind::kShortIo)) {
    // Torn write: flush the full file, then cut it to `param` bytes — the
    // on-disk state a crash mid-write leaves behind. LoadModel must
    // refuse the remnant (Corruption), never score with it.
    out.close();
    ::truncate(path.c_str(),
               static_cast<off_t>(std::min<uint64_t>(fault->param, 1u << 30)));
    return Status::IoError("injected torn write: " + path);
  }
  return Status::OK();
}

StatusOr<LeapmeMatcher> LeapmeMatcher::LoadModel(
    const embedding::EmbeddingModel* model, const std::string& path) {
  if (faults::InjectError("model.load")) {
    return Status::IoError("injected model.load failure: " + path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open: " + path);
  }
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "leapme-matcher" || (version != 1 && version != 2)) {
    return Status::Corruption("bad matcher header in " + path);
  }

  LeapmeOptions options;
  std::string key;
  size_t embedding_dim = 0;
  std::string fingerprint;
  std::vector<size_t> columns;
  std::vector<float> scaler_mean;
  std::vector<float> scaler_stddev;
  bool saw_end = false;
  while (in >> key) {
    if (key == "embedding_dim") {
      in >> embedding_dim;
    } else if (key == "fingerprint") {
      in >> fingerprint;
    } else if (key == "max_instances") {
      in >> options.pair_features.max_instances_per_property;
    } else if (key == "stages") {
      size_t count = 0;
      in >> count;
      if (!in || count > kMaxPersistedVectorSize) {
        return Status::Corruption("bad stage count in " + path);
      }
      options.feature_stages.resize(count);
      for (std::string& stage : options.feature_stages) in >> stage;
      if (!in) {
        return Status::Corruption("truncated stage list in " + path);
      }
    } else if (key == "threshold") {
      in >> options.decision_threshold;
    } else if (key == "standardize") {
      int flag = 0;
      in >> flag;
      options.standardize_features = flag != 0;
    } else if (key == "absolute_diff") {
      int flag = 0;
      in >> flag;
      options.pair_features.absolute_difference = flag != 0;
    } else if (key == "normalize_distances") {
      int flag = 0;
      in >> flag;
      options.pair_features.normalize_string_distances = flag != 0;
    } else if (key == "origin") {
      int value = 0;
      in >> value;
      options.feature_config.origin =
          static_cast<features::OriginSelection>(value);
    } else if (key == "kinds") {
      int value = 0;
      in >> value;
      options.feature_config.kinds =
          static_cast<features::KindSelection>(value);
    } else if (key == "columns") {
      size_t count = 0;
      in >> count;
      // Bound the allocation before trusting the count: the widest
      // feature schema has well under 10^4 columns, so anything larger
      // is a corrupt or hostile file, not a real model.
      if (!in || count > kMaxPersistedVectorSize) {
        return Status::Corruption("bad column count in " + path);
      }
      columns.resize(count);
      for (size_t& column : columns) in >> column;
      if (!in) {
        return Status::Corruption("truncated column list in " + path);
      }
    } else if (key == "scaler") {
      size_t count = 0;
      in >> count;
      if (!in || count > kMaxPersistedVectorSize) {
        return Status::Corruption("bad scaler size in " + path);
      }
      scaler_mean.resize(count);
      scaler_stddev.resize(count);
      for (float& value : scaler_mean) in >> value;
      for (float& value : scaler_stddev) in >> value;
      if (!in) {
        return Status::Corruption("truncated scaler statistics in " + path);
      }
    } else if (key == "end") {
      std::string marker;
      in >> marker;
      if (marker != "leapme") {
        return Status::Corruption("bad end-of-file marker in " + path);
      }
      saw_end = true;
    } else {
      return Status::Corruption("unknown key '" + key + "' in " + path);
    }
    if (!in) {
      return Status::Corruption("truncated value for key '" + key +
                                "' in " + path);
    }
  }
  if (embedding_dim == 0) {
    return Status::Corruption("missing embedding_dim in " + path);
  }
  // v1 predates the sentinel; a v2 file without it is a torn write — a
  // truncated numeric tail can parse cleanly, so EOF alone proves nothing.
  if (version >= 2 && !saw_end) {
    return Status::Corruption("missing end-of-file marker in " + path +
                              " (torn write?)");
  }
  if (model->dimension() != embedding_dim) {
    return Status::FailedPrecondition(StrFormat(
        "model %s was trained with embedding dimension %zu but the live "
        "embedding model has dimension %zu",
        path.c_str(), embedding_dim, model->dimension()));
  }

  LeapmeMatcher matcher(model, options);
  if (!matcher.columns_error_.ok()) {
    return matcher.columns_error_;
  }
  // Prove the live pipeline computes the same design matrix the model was
  // trained on. A v1 file predates fingerprints; a v2 file must carry one
  // and it must match the schema rebuilt from the persisted options.
  const std::string& live = matcher.pipeline_.schema().fingerprint();
  if (version < 2) {
    LEAPME_LOG(Warning)
        << "loading v1 model file " << path
        << " without a feature-schema fingerprint; assuming it matches the "
           "live pipeline (" << live << ")";
  } else if (fingerprint.empty()) {
    return Status::Corruption("missing fingerprint in v2 model " + path);
  } else if (fingerprint != live) {
    return Status::FailedPrecondition(StrFormat(
        "model %s was trained with feature schema %s but the live pipeline "
        "computes %s (%s); refusing to mis-score",
        path.c_str(), fingerprint.c_str(), live.c_str(),
        matcher.pipeline_.schema().canonical().c_str()));
  }
  if (matcher.columns_ != columns) {
    return Status::Corruption("saved columns disagree with feature config");
  }
  matcher.decision_threshold_ = options.decision_threshold;
  LEAPME_ASSIGN_OR_RETURN(matcher.mlp_, nn::LoadMlp(path + ".mlp"));
  if (!scaler_mean.empty()) {
    LEAPME_RETURN_IF_ERROR(
        matcher.scaler_.Restore(scaler_mean, scaler_stddev));
  }
  matcher.fitted_ = true;
  matcher.loaded_format_version_ = version;
  return matcher;
}

}  // namespace leapme::core
