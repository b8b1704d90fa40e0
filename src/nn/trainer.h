#ifndef LEAPME_NN_TRAINER_H_
#define LEAPME_NN_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/mlp.h"

namespace leapme::nn {

/// One phase of the stepped learning-rate schedule.
struct LrPhase {
  size_t epochs = 0;
  double learning_rate = 0.0;
};

/// Mini-batch training configuration. Defaults reproduce the paper's §IV-D
/// hyper-parameters: batch size 32; 10 epochs at 1e-3, then 5 at 1e-4,
/// then 5 at 1e-5.
struct TrainerOptions {
  size_t batch_size = 32;
  std::vector<LrPhase> schedule = {
      {10, 1e-3},
      {5, 1e-4},
      {5, 1e-5},
  };
  /// Seeds the per-epoch shuffle of the training rows.
  uint64_t shuffle_seed = 7;
};

/// Drives mini-batch Adam training of an Mlp over a fixed design matrix.
class Trainer {
 public:
  explicit Trainer(TrainerOptions options = {})
      : options_(std::move(options)) {}

  /// Trains `mlp` on `inputs` (N x D) with integer `labels` (length N).
  /// Returns the mean loss of each epoch in order. Fails when shapes
  /// disagree or the dataset is empty.
  StatusOr<std::vector<double>> Fit(Mlp& mlp, const Matrix& inputs,
                                    const std::vector<int32_t>& labels) const;

  const TrainerOptions& options() const { return options_; }

 private:
  TrainerOptions options_;
};

}  // namespace leapme::nn

#endif  // LEAPME_NN_TRAINER_H_
