#ifndef LEAPME_NN_ACTIVATION_H_
#define LEAPME_NN_ACTIVATION_H_

#include <string>

#include "nn/layer.h"

namespace leapme::nn {

/// Rectified linear unit: output = max(0, input), applied elementwise.
class ReluLayer final : public Layer {
 public:
  void Forward(const Matrix& input, Matrix* output) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input) override;
  void ForwardInference(const Matrix& input, Matrix* output) const override;
  std::string TypeName() const override { return "relu"; }
  size_t OutputDim(size_t input_dim) const override { return input_dim; }

 private:
  Matrix mask_;  // 1 where input > 0, cached for Backward
};

}  // namespace leapme::nn

#endif  // LEAPME_NN_ACTIVATION_H_
