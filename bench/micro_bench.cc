// Substrate micro-benchmarks (google-benchmark): string metrics, q-gram
// profiles, instance feature extraction, embedding pooling, GEMM, one NN
// training step, minhash signatures. These measure the building blocks
// whose cost dominates the end-to-end experiment harness.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/domain.h"
#include "embedding/synthetic_model.h"
#include "features/feature_pipeline.h"
#include "features/instance_features.h"
#include "nn/mlp.h"
#include "text/ngram.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"

namespace {

using namespace leapme;

const char* kNameA = "camera resolution";
const char* kNameB = "effective pixels (approx.)";

void BM_Levenshtein(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Levenshtein(kNameA, kNameB));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_OptimalStringAlignment(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::OptimalStringAlignment(kNameA, kNameB));
  }
}
BENCHMARK(BM_OptimalStringAlignment);

void BM_DamerauLevenshtein(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::DamerauLevenshtein(kNameA, kNameB));
  }
}
BENCHMARK(BM_DamerauLevenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaroWinklerDistance(kNameA, kNameB));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_ThreeGramCosine(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::ThreeGramCosineDistance(kNameA, kNameB));
  }
}
BENCHMARK(BM_ThreeGramCosine);

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::TokenizeKeepNumbers("117 x 68.4 x 50 mm (approx.) WiFi"));
  }
}
BENCHMARK(BM_Tokenize);

embedding::SyntheticEmbeddingModel BuildModel(size_t dimension) {
  embedding::SyntheticModelOptions options;
  options.dimension = dimension;
  return std::move(embedding::SyntheticEmbeddingModel::Build(
                       data::DomainClusters(data::CameraDomain()), options))
      .value();
}

void BM_InstanceFeatures(benchmark::State& state) {
  auto model = BuildModel(static_cast<size_t>(state.range(0)));
  features::InstanceFeatureExtractor extractor(&model);
  std::vector<float> out(extractor.dimension());
  for (auto _ : state) {
    extractor.Extract("24.3 MP (approx.)", out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_InstanceFeatures)->Arg(48)->Arg(300);

void BM_AverageEmbedding(benchmark::State& state) {
  auto model = BuildModel(static_cast<size_t>(state.range(0)));
  std::vector<std::string> words =
      text::EmbeddingWords("camera resolution megapixels");
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedding::AverageEmbedding(model, words));
  }
}
BENCHMARK(BM_AverageEmbedding)->Arg(48)->Arg(300);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  nn::Matrix a(n, n);
  nn::Matrix b(n, n);
  Rng rng(1);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.NextDouble());
    b.data()[i] = static_cast<float>(rng.NextDouble());
  }
  nn::Matrix out;
  for (auto _ : state) {
    nn::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// 1-vs-N thread scaling of the parallel GEMM path (the matrix is large
// enough to cross the row-partitioning threshold). The `threads` counter
// lands in the benchmark JSON so scaling runs are self-describing.
void BM_GemmThreads(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  SetGlobalThreadCount(threads);
  nn::Matrix a(n, n);
  nn::Matrix b(n, n);
  Rng rng(1);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.NextDouble());
    b.data()[i] = static_cast<float>(rng.NextDouble());
  }
  nn::Matrix out;
  for (auto _ : state) {
    nn::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.counters["threads"] = static_cast<double>(threads);
  SetGlobalThreadCount(0);  // restore --threads/LEAPME_THREADS/hardware
}
BENCHMARK(BM_GemmThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->UseRealTime();  // wall clock: the submitting thread mostly waits

// 1-vs-N thread scaling of the feature stage: design-matrix assembly
// (string distances + vector differences per row) over a block of pairs.
void BM_BuildDesignMatrixThreads(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(0));
  auto model = BuildModel(48);
  features::FeaturePipeline pipeline(&model);
  const data::DomainSpec& domain = data::CameraDomain();
  std::vector<features::PropertyFeatures> properties;
  std::vector<std::string> values = {"24.3 MP", "6000 x 4000",
                                     "approx. 24 megapixels"};
  for (const data::ReferenceProperty& property : domain.properties) {
    for (const std::string& name : property.surface_names) {
      properties.push_back(pipeline.ComputeProperty(name, values));
    }
  }
  constexpr size_t kPairs = 2048;
  std::vector<const features::PropertyFeatures*> lhs(kPairs);
  std::vector<const features::PropertyFeatures*> rhs(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    lhs[i] = &properties[i % properties.size()];
    rhs[i] = &properties[(i * 7 + 3) % properties.size()];
  }
  for (auto _ : state) {
    nn::Matrix design = pipeline.BuildDesignMatrix(lhs, rhs, {}, threads);
    benchmark::DoNotOptimize(design.data());
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_BuildDesignMatrixThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_MlpTrainBatch(benchmark::State& state) {
  const auto input_dim = static_cast<size_t>(state.range(0));
  Rng rng(2);
  nn::Mlp mlp = nn::BuildMlp(input_dim, {128, 64}, 2, rng);
  nn::AdamOptimizer adam(1e-3);
  nn::Matrix batch(32, input_dim);
  std::vector<int32_t> labels(32);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.NextDouble(-1, 1));
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(rng.NextBounded(2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.TrainBatch(batch, labels, adam));
  }
}
BENCHMARK(BM_MlpTrainBatch)->Arg(133)->Arg(637);

void BM_MlpInferBatch(benchmark::State& state) {
  const auto input_dim = static_cast<size_t>(state.range(0));
  Rng rng(3);
  nn::Mlp mlp = nn::BuildMlp(input_dim, {128, 64}, 2, rng);
  nn::Matrix batch(1024, input_dim);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.NextDouble(-1, 1));
  }
  nn::Matrix probabilities;
  for (auto _ : state) {
    mlp.Infer(batch, &probabilities);
    benchmark::DoNotOptimize(probabilities.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MlpInferBatch)->Arg(133)->Arg(637);

void BM_MinhashSignature(benchmark::State& state) {
  // 64 hash functions over a 100-token set, the LSH baseline's kernel.
  std::vector<std::string> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back("token" + std::to_string(i));
  }
  std::vector<uint64_t> seeds(64);
  Rng rng(4);
  for (auto& seed : seeds) seed = rng.Next();
  for (auto _ : state) {
    std::vector<uint64_t> signature(64, ~uint64_t{0});
    for (const std::string& token : tokens) {
      uint64_t h = HashBytes(token.data(), token.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        uint64_t value = Mix64(h ^ seeds[i]);
        if (value < signature[i]) signature[i] = value;
      }
    }
    benchmark::DoNotOptimize(signature.data());
  }
}
BENCHMARK(BM_MinhashSignature);

// Console reporter that also collects per-benchmark real time so the run
// lands in the shared BENCH_micro.json report (see bench_util.h).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      collected_.emplace_back(run.benchmark_name(),
                              run.GetAdjustedRealTime());
    }
  }

  const std::vector<std::pair<std::string, double>>& collected() const {
    return collected_;
  }

 private:
  std::vector<std::pair<std::string, double>> collected_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  leapme::bench::JsonReport report("micro");
  for (const auto& [name, real_time_ns] : reporter.collected()) {
    report.Metric(name + "_ns", real_time_ns);
  }
  leapme::bench::WriteJsonReport(report);
  return 0;
}
