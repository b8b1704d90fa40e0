#include "fixtures.h"

#include <numeric>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "data/tsv_io.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "trace.h"

namespace perfbench {

using namespace leapme;

namespace {

// The serving catalog: ~80k properties over 160 sources in category
// groups of 6, so most properties have a few true matches in the catalog.
constexpr size_t kCatalogProperties = 80000;
constexpr size_t kCatalogSources = 160;
// The served model is trained on a separate small catalog of the same
// shape (training on 10^5 properties is not what serve-score measures).
constexpr size_t kTrainProperties = 1200;
constexpr size_t kTrainSources = 12;
// offline-match: the paper's setting, a balanced many-source catalog of
// one domain, 80% of the sources for training. The catalog and its
// embedding space are the same for every seed: how many candidate pairs
// the blocker yields varied by +-13% between generated catalogs, and the
// pass time with it (README.md, "Why the definitions are steady").
constexpr size_t kOfflineSources = 20;
constexpr size_t kOfflineEntities = 30;
constexpr uint64_t kOfflineCatalogSeed = 21;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

}  // namespace

std::vector<std::string> EmbeddingFlags(const EmbeddingSpec& spec) {
  return {"--domain", spec.domain, "--emb-dim", std::to_string(spec.dimension),
          "--seed", std::to_string(spec.seed)};
}

std::unique_ptr<embedding::EmbeddingModel> BuildEmbeddings(
    const EmbeddingSpec& spec) {
  const data::DomainSpec* domain = &data::CameraDomain();
  for (const data::DomainSpec* candidate : data::AllDomains()) {
    if (candidate->name == spec.domain) domain = candidate;
  }
  embedding::SyntheticModelOptions options;
  options.dimension = spec.dimension;
  options.seed = spec.seed;
  options.oov_policy = embedding::OovPolicy::kHashedVector;
  auto model = embedding::SyntheticEmbeddingModel::Build(
      data::DomainClusters(*domain), options);
  if (!model.ok()) return nullptr;
  return std::make_unique<embedding::SyntheticEmbeddingModel>(
      std::move(model).value());
}

serve::ModelRegistry::Loader MakeLoader(const EmbeddingSpec& spec) {
  return [spec](const std::string& path)
             -> StatusOr<serve::ModelGeneration::Resources> {
    serve::ModelGeneration::Resources resources;
    resources.base_model = BuildEmbeddings(spec);
    if (resources.base_model == nullptr) {
      return Status::Internal("cannot build the embedding space");
    }
    resources.embedding_cache =
        std::make_unique<embedding::CachingEmbeddingModel>(
            resources.base_model.get(), 65536, 0);
    LEAPME_ASSIGN_OR_RETURN(
        core::LeapmeMatcher matcher,
        core::LeapmeMatcher::LoadModel(resources.embedding_cache.get(), path));
    resources.matcher =
        std::make_unique<core::LeapmeMatcher>(std::move(matcher));
    return resources;
  };
}

serve::PropertySpec SpecOf(const data::Dataset& dataset,
                           data::PropertyId id) {
  serve::PropertySpec spec;
  spec.name = dataset.property(id).name;
  for (const data::InstanceValue& instance : dataset.instances(id)) {
    spec.values.push_back(instance.value);
  }
  return spec;
}

std::vector<size_t> DesignColumns(const core::LeapmeMatcher& matcher) {
  std::vector<size_t> columns = matcher.pipeline().schema().SelectedColumns(
      matcher.options().feature_config);
  if (columns.size() != matcher.input_dimension()) {
    columns.resize(matcher.input_dimension());
    std::iota(columns.begin(), columns.end(), size_t{0});
  }
  return columns;
}

double ReplayFitFeatures(const core::LeapmeMatcher& matcher,
                         const data::Dataset& dataset,
                         const std::vector<data::LabeledPair>& pairs) {
  const uint64_t start = NowNs();
  std::vector<features::PropertyFeatures> properties(
      dataset.property_count());
  const size_t threads = matcher.options().threads;
  ParallelFor(0, dataset.property_count(), /*grain=*/1, threads,
              [&](size_t begin, size_t end) {
                for (size_t id = begin; id < end; ++id) {
                  const serve::PropertySpec spec =
                      SpecOf(dataset, static_cast<data::PropertyId>(id));
                  properties[id] = matcher.ComputePropertyFeatures(
                      spec.name, spec.values);
                }
              });
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  for (const data::LabeledPair& pair : pairs) {
    lhs.push_back(&properties[pair.pair.a]);
    rhs.push_back(&properties[pair.pair.b]);
  }
  const nn::Matrix design = matcher.pipeline().BuildDesignMatrix(
      lhs, rhs, DesignColumns(matcher), threads);
  (void)design;
  return static_cast<double>(NowNs() - start) / 1e9;
}

bool BuildServingFixture(uint64_t seed, const std::string& dir,
                         ServingFixture* fixture, std::string* error) {
  fixture->embedding.seed = SubSeed(seed, 1) % 1000000;
  fixture->model_path = dir + "/served.model";
  fixture->catalog_path = dir + "/catalog.tsv";

  // The served model.
  data::ScaledCatalogOptions train_options;
  train_options.target_properties = kTrainProperties;
  train_options.num_sources = kTrainSources;
  train_options.entities_per_source = 8;
  train_options.sources_per_category = 6;
  train_options.seed = SubSeed(seed, 2);
  auto train_set = data::GenerateScaledCatalog(train_options);
  if (!train_set.ok()) {
    *error = train_set.status().ToString();
    return false;
  }
  Rng rng(SubSeed(seed, 3));
  const data::SourceSplit split = data::SplitSources(*train_set, 0.8, rng);
  auto training =
      data::BuildTrainingPairs(*train_set, split.train_sources, 2.0, rng);
  if (!training.ok()) {
    *error = training.status().ToString();
    return false;
  }
  auto embeddings = BuildEmbeddings(fixture->embedding);
  core::LeapmeMatcher matcher(embeddings.get());
  const uint64_t fit_start = NowNs();
  Status status = matcher.Fit(*train_set, *training);
  fixture->fit_s = static_cast<double>(NowNs() - fit_start) / 1e9;
  if (status.ok()) status = matcher.SaveModel(fixture->model_path);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  fixture->fit_features_s = ReplayFitFeatures(matcher, *train_set, *training);

  data::ScaledCatalogOptions options;
  options.target_properties = kCatalogProperties;
  options.num_sources = kCatalogSources;
  options.entities_per_source = 8;
  options.sources_per_category = 6;
  options.seed = SubSeed(seed, 4);
  auto catalog = data::GenerateScaledCatalog(options);
  if (!catalog.ok()) {
    *error = catalog.status().ToString();
    return false;
  }
  fixture->catalog = std::move(catalog).value();
  for (data::PropertyId id = 0; id < fixture->catalog.property_count(); ++id) {
    const std::string& reference = fixture->catalog.property(id).reference;
    if (!reference.empty()) fixture->by_reference[reference].push_back(id);
  }
  status = data::WriteDatasetTsv(fixture->catalog, fixture->catalog_path);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  return true;
}

bool BuildOfflineFixture(uint64_t seed, const std::string& dir,
                         OfflineFixture* fixture, std::string* error) {
  fixture->embedding.seed = SubSeed(kOfflineCatalogSeed, 5) % 1000000;
  fixture->dataset_path = dir + "/offline.tsv";
  fixture->pair_seed = SubSeed(seed, 6);
  data::GeneratorOptions options;
  options.num_sources = kOfflineSources;
  options.min_entities_per_source = kOfflineEntities;
  options.max_entities_per_source = kOfflineEntities;
  options.seed = SubSeed(kOfflineCatalogSeed, 7);
  auto dataset = data::GenerateCatalog(data::CameraDomain(), options);
  if (!dataset.ok()) {
    *error = dataset.status().ToString();
    return false;
  }
  const Status status = data::WriteDatasetTsv(*dataset, fixture->dataset_path);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  return true;
}

}  // namespace perfbench
