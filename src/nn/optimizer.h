#ifndef LEAPME_NN_OPTIMIZER_H_
#define LEAPME_NN_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/layer.h"
#include "nn/matrix.h"

namespace leapme::nn {

/// Adam (Kingma & Ba) with beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8: the
/// optimizer LEAPME trains with. The learning rate is mutable so the
/// trainer can implement the paper's stepped schedule (1e-3 -> 1e-4 ->
/// 1e-5) without resetting the moment estimates.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(double learning_rate)
      : learning_rate_(learning_rate) {}

  /// Applies one update to every parameter using its current gradient.
  void Step(const std::vector<Parameter>& parameters);

  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

 private:
  struct Moments {
    Matrix m;
    Matrix v;
  };

  double learning_rate_;
  int64_t step_count_ = 0;
  std::unordered_map<const Matrix*, Moments> moments_;
};

}  // namespace leapme::nn

#endif  // LEAPME_NN_OPTIMIZER_H_
