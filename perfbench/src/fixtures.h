#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/leapme.h"
#include "data/dataset.h"
#include "embedding/embedding_model.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"

namespace perfbench {

/// The embedding space of the served model, as `leapme serve` rebuilds
/// it from `--domain --emb-dim --seed`.
struct EmbeddingSpec {
  std::string domain = "cameras";
  size_t dimension = 16;
  uint64_t seed = 0;
};

/// The serve flags that rebuild `spec`.
std::vector<std::string> EmbeddingFlags(const EmbeddingSpec& spec);

/// The in-process twin of the CLI's embedding construction.
std::unique_ptr<leapme::embedding::EmbeddingModel> BuildEmbeddings(
    const EmbeddingSpec& spec);

/// The CLI's model loader (`leapme serve`): embeddings, a 65536-entry
/// embedding cache, and LoadModel — so in-process scores equal served
/// ones bit for bit.
leapme::serve::ModelRegistry::Loader MakeLoader(const EmbeddingSpec& spec);

/// Name + instance values of a dataset property, as a client sends it.
leapme::serve::PropertySpec SpecOf(const leapme::data::Dataset& dataset,
                                   leapme::data::PropertyId id);

/// The column selection of a fitted matcher's design matrix.
std::vector<size_t> DesignColumns(const leapme::core::LeapmeMatcher& matcher);

/// Inputs of the serving workload, all derived from the seed: a scaled
/// multi-category catalog the server indexes and the requests draw from,
/// and a model trained on a separate small catalog.
struct ServingFixture {
  EmbeddingSpec embedding;
  std::string model_path;
  std::string catalog_path;
  leapme::data::Dataset catalog;
  /// Catalog properties per reference, for ground truth.
  std::unordered_map<std::string, std::vector<leapme::data::PropertyId>>
      by_reference;
  /// Wall seconds of the served model's Fit, and of the same feature work
  /// replayed outside it (for nn.train_s).
  double fit_s = 0.0;
  double fit_features_s = 0.0;
};

/// Generates, trains and writes the serving fixture into `dir`.
bool BuildServingFixture(uint64_t seed, const std::string& dir,
                         ServingFixture* fixture, std::string* error);

/// Wall seconds of the feature work Fit does before training (every
/// property's features, then the training design matrix), replayed with
/// the fitted matcher's pipeline and thread cap.
double ReplayFitFeatures(const leapme::core::LeapmeMatcher& matcher,
                         const leapme::data::Dataset& dataset,
                         const std::vector<leapme::data::LabeledPair>& pairs);

/// Inputs of offline-match: a balanced many-source catalog written as
/// TSV, split and paired after each read. The catalog and embedding space
/// are fixed; the seed picks the split, the training pairs and the
/// model's initial weights.
struct OfflineFixture {
  EmbeddingSpec embedding;
  std::string dataset_path;
  /// Seeds the source split, the training-pair draw and the weights.
  uint64_t pair_seed = 0;
};

bool BuildOfflineFixture(uint64_t seed, const std::string& dir,
                         OfflineFixture* fixture, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
