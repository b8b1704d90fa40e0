#include "nn/dense_layer.h"

#include <cmath>

#include "common/logging.h"

namespace leapme::nn {

DenseLayer::DenseLayer(size_t input_dim, size_t output_dim, Rng& rng)
    : weights_(input_dim, output_dim),
      bias_(1, output_dim),
      grad_weights_(input_dim, output_dim),
      grad_bias_(1, output_dim) {
  // He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(input_dim));
  for (size_t i = 0; i < input_dim; ++i) {
    for (size_t j = 0; j < output_dim; ++j) {
      weights_(i, j) = static_cast<float>(rng.NextDouble(-limit, limit));
    }
  }
}

DenseLayer::DenseLayer(Matrix weights, std::vector<float> bias)
    : weights_(std::move(weights)) {
  const size_t bias_width = bias.size();
  bias_ = Matrix(1, bias_width, std::move(bias));
  grad_weights_ = Matrix(weights_.rows(), weights_.cols());
  grad_bias_ = Matrix(1, bias_.cols());
}

void DenseLayer::Forward(const Matrix& input, Matrix* output) {
  LEAPME_CHECK_EQ(input.cols(), weights_.rows());
  last_input_ = input;
  Gemm(input, weights_, output);
  AddRowVector(output, bias_.row(0));
}

void DenseLayer::ForwardInference(const Matrix& input, Matrix* output) const {
  LEAPME_CHECK_EQ(input.cols(), weights_.rows());
  Gemm(input, weights_, output);
  AddRowVector(output, bias_.row(0));
}

void DenseLayer::Backward(const Matrix& grad_output, Matrix* grad_input) {
  LEAPME_CHECK_EQ(grad_output.cols(), weights_.cols());
  LEAPME_CHECK_EQ(grad_output.rows(), last_input_.rows());
  GemmTransposeA(last_input_, grad_output, &grad_weights_);
  std::vector<float> bias_grad;
  ColumnSums(grad_output, &bias_grad);
  const size_t bias_width = bias_grad.size();
  grad_bias_ = Matrix(1, bias_width, std::move(bias_grad));
  if (grad_input != nullptr) {
    GemmTransposeB(grad_output, weights_, grad_input);
  }
}

std::vector<Parameter> DenseLayer::Parameters() {
  return {
      {"weights", &weights_, &grad_weights_},
      {"bias", &bias_, &grad_bias_},
  };
}

size_t DenseLayer::OutputDim(size_t input_dim) const {
  LEAPME_CHECK_EQ(input_dim, weights_.rows());
  return weights_.cols();
}

}  // namespace leapme::nn
