#include "features/feature_pipeline.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/parallel.h"
#include "text/string_metrics.h"

namespace leapme::features {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

FeaturePipeline::FeaturePipeline(const embedding::EmbeddingModel* model,
                                 PairFeatureOptions options)
    : FeaturePipeline(model, &FeatureRegistry::BuiltIn(), options) {}

FeaturePipeline::FeaturePipeline(const embedding::EmbeddingModel* model,
                                 const FeatureRegistry* registry,
                                 PairFeatureOptions options)
    : model_(model),
      options_(options),
      schema_(registry, model->dimension(), options),
      counters_(registry->size()) {}

PropertyFeatures FeaturePipeline::ComputeProperty(
    std::string_view name, std::span<const std::string> values) const {
  PropertyFeatures features;
  features.name = std::string(name);
  features.vector.assign(property_dimension(), 0.0f);
  features.name_grams = text::GramProfile(name, text::kQgramSize);

  const StageContext ctx = Context();
  std::span<float> property(features.vector);
  const auto& spans = schema_.stages();
  for (size_t s = 0; s < spans.size(); ++s) {
    const StageSpan& span = spans[s];
    if (span.property_width() == 0) continue;
    const uint64_t start = NowNs();
    span.stage->ComputeProperty(
        ctx, name, values,
        property.subspan(span.property_begin, span.property_width()));
    counters_[s].property_calls.Increment();
    counters_[s].property_ns.Increment(NowNs() - start);
  }
  return features;
}

void FeaturePipeline::ComputePair(const PropertyFeatures& a,
                                  const PropertyFeatures& b,
                                  std::span<float> out) const {
  LEAPME_CHECK_EQ(out.size(), pair_dimension());
  LEAPME_CHECK_EQ(a.vector.size(), property_dimension());
  LEAPME_CHECK_EQ(b.vector.size(), property_dimension());

  const StageContext ctx = Context();
  const PreparedName a_name = a.prepared_name();
  const PreparedName b_name = b.prepared_name();
  std::span<const float> a_vec(a.vector);
  std::span<const float> b_vec(b.vector);
  const auto& spans = schema_.stages();
  for (size_t s = 0; s < spans.size(); ++s) {
    const StageSpan& span = spans[s];
    const uint64_t start = NowNs();
    span.stage->ComputePair(
        ctx, a_name, b_name,
        a_vec.subspan(span.property_begin, span.property_width()),
        b_vec.subspan(span.property_begin, span.property_width()),
        out.subspan(span.pair_begin, span.pair_width()));
    counters_[s].pair_calls.Increment();
    counters_[s].pair_ns.Increment(NowNs() - start);
  }
}

nn::Matrix FeaturePipeline::BuildDesignMatrix(
    const std::vector<const PropertyFeatures*>& lhs,
    const std::vector<const PropertyFeatures*>& rhs,
    const std::vector<size_t>& columns, size_t max_threads) const {
  LEAPME_CHECK_EQ(lhs.size(), rhs.size());
  const size_t full_dim = pair_dimension();
  const size_t out_dim = columns.empty() ? full_dim : columns.size();
  nn::Matrix design(lhs.size(), out_dim);
  const StageContext ctx = Context();
  const auto& spans = schema_.stages();
  // A stage runs only when one of its pair slots is gathered: the slots of
  // the others would be computed and dropped.
  std::vector<bool> selected(spans.size(), columns.empty());
  for (size_t column : columns) {
    LEAPME_CHECK_LT(column, full_dim);
    for (size_t s = 0; s < spans.size(); ++s) {
      if (column >= spans[s].pair_begin && column < spans[s].pair_end) {
        selected[s] = true;
      }
    }
  }
  // Each row is a pure function of its own pair; the chunks share nothing
  // but the scratch buffer, which is per-chunk. The stage loop is outer
  // within a chunk so each stage is timed once per chunk, not per row —
  // every slot is still computed by the same expression as a per-row
  // ComputePair, so the matrix is bit-identical.
  constexpr size_t kRowGrain = 32;
  ParallelFor(
      0, lhs.size(), kRowGrain, max_threads,
      [&](size_t row_begin, size_t row_end) {
        const size_t rows = row_end - row_begin;
        std::vector<float> full(rows * full_dim, 0.0f);
        for (size_t s = 0; s < spans.size(); ++s) {
          if (!selected[s]) continue;
          const StageSpan& span = spans[s];
          const uint64_t start = NowNs();
          for (size_t i = 0; i < rows; ++i) {
            const PropertyFeatures& a = *lhs[row_begin + i];
            const PropertyFeatures& b = *rhs[row_begin + i];
            std::span<float> row(full.data() + i * full_dim, full_dim);
            span.stage->ComputePair(
                ctx, a.prepared_name(), b.prepared_name(),
                std::span<const float>(a.vector)
                    .subspan(span.property_begin, span.property_width()),
                std::span<const float>(b.vector)
                    .subspan(span.property_begin, span.property_width()),
                row.subspan(span.pair_begin, span.pair_width()));
          }
          counters_[s].pair_calls.Increment(rows);
          counters_[s].pair_ns.Increment(NowNs() - start);
        }
        for (size_t i = 0; i < rows; ++i) {
          const float* full_row = full.data() + i * full_dim;
          auto row = design.row(row_begin + i);
          if (columns.empty()) {
            std::copy(full_row, full_row + full_dim, row.begin());
          } else {
            for (size_t c = 0; c < columns.size(); ++c) {
              row[c] = full_row[columns[c]];
            }
          }
        }
      });
  return design;
}

std::vector<StageTiming> FeaturePipeline::StageTimings() const {
  std::vector<StageTiming> timings;
  const auto& spans = schema_.stages();
  timings.reserve(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    StageTiming timing;
    timing.name = std::string(spans[s].stage->name());
    timing.version = spans[s].stage->version();
    timing.property_calls = counters_[s].property_calls.value();
    timing.property_ns = counters_[s].property_ns.value();
    timing.pair_calls = counters_[s].pair_calls.value();
    timing.pair_ns = counters_[s].pair_ns.value();
    timings.push_back(std::move(timing));
  }
  return timings;
}

}  // namespace leapme::features
