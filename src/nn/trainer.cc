#include "nn/trainer.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "nn/optimizer.h"

namespace leapme::nn {

StatusOr<std::vector<double>> Trainer::Fit(
    Mlp& mlp, const Matrix& inputs,
    const std::vector<int32_t>& labels) const {
  if (inputs.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (inputs.rows() != labels.size()) {
    return Status::InvalidArgument(
        StrFormat("inputs has %zu rows but labels has %zu entries",
                  inputs.rows(), labels.size()));
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch size must be positive");
  }
  if (options_.schedule.empty()) {
    return Status::InvalidArgument("empty learning-rate schedule");
  }

  const size_t n = inputs.rows();
  const size_t batch = options_.batch_size;
  AdamOptimizer optimizer(options_.schedule.front().learning_rate);

  Rng rng(options_.shuffle_seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});

  std::vector<double> epoch_losses;
  Matrix batch_inputs;
  std::vector<int32_t> batch_labels;

  for (const LrPhase& phase : options_.schedule) {
    optimizer.set_learning_rate(phase.learning_rate);
    for (size_t epoch = 0; epoch < phase.epochs; ++epoch) {
      rng.Shuffle(order);
      double loss_sum = 0.0;
      size_t batches = 0;
      for (size_t start = 0; start < n; start += batch) {
        size_t end = std::min(start + batch, n);
        size_t rows = end - start;
        batch_inputs.Resize(rows, inputs.cols());
        batch_labels.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          size_t src = order[start + i];
          std::copy(inputs.row(src).begin(), inputs.row(src).end(),
                    batch_inputs.row(i).begin());
          batch_labels[i] = labels[src];
        }
        loss_sum += mlp.TrainBatch(batch_inputs, batch_labels, optimizer);
        ++batches;
      }
      epoch_losses.push_back(loss_sum / static_cast<double>(batches));
    }
  }
  return epoch_losses;
}

}  // namespace leapme::nn
