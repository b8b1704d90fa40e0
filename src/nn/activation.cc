#include "nn/activation.h"

#include "common/logging.h"

namespace leapme::nn {

void ReluLayer::Forward(const Matrix& input, Matrix* output) {
  output->Resize(input.rows(), input.cols());
  mask_.Resize(input.rows(), input.cols());
  for (size_t i = 0; i < input.size(); ++i) {
    float v = input.data()[i];
    if (v > 0.0f) {
      output->data()[i] = v;
      mask_.data()[i] = 1.0f;
    }
  }
}

void ReluLayer::ForwardInference(const Matrix& input, Matrix* output) const {
  output->Resize(input.rows(), input.cols());
  for (size_t i = 0; i < input.size(); ++i) {
    float v = input.data()[i];
    if (v > 0.0f) {
      output->data()[i] = v;
    }
  }
}

void ReluLayer::Backward(const Matrix& grad_output, Matrix* grad_input) {
  LEAPME_CHECK_EQ(grad_output.rows(), mask_.rows());
  LEAPME_CHECK_EQ(grad_output.cols(), mask_.cols());
  if (grad_input == nullptr) return;
  grad_input->Resize(grad_output.rows(), grad_output.cols());
  for (size_t i = 0; i < grad_output.size(); ++i) {
    grad_input->data()[i] = grad_output.data()[i] * mask_.data()[i];
  }
}

}  // namespace leapme::nn
