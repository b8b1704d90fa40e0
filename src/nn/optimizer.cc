#include "nn/optimizer.h"

#include <cmath>

namespace leapme::nn {

namespace {
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;
}  // namespace

void AdamOptimizer::Step(const std::vector<Parameter>& parameters) {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(step_count_));
  const auto lr = static_cast<float>(learning_rate_);
  const auto b1 = static_cast<float>(kBeta1);
  const auto b2 = static_cast<float>(kBeta2);
  const auto eps = static_cast<float>(kEpsilon);
  const auto inv_bias1 = static_cast<float>(1.0 / bias1);
  const auto inv_bias2 = static_cast<float>(1.0 / bias2);
  for (const Parameter& p : parameters) {
    Moments& moments = moments_[p.value];
    if (moments.m.size() != p.value->size()) {
      moments.m.Resize(p.value->rows(), p.value->cols());
      moments.v.Resize(p.value->rows(), p.value->cols());
    }
    float* value = p.value->data();
    float* m = moments.m.data();
    float* v = moments.v.data();
    const float* grad = p.gradient->data();
    for (size_t i = 0; i < p.value->size(); ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * grad[i];
      v[i] = b2 * v[i] + (1.0f - b2) * grad[i] * grad[i];
      float m_hat = m[i] * inv_bias1;
      float v_hat = v[i] * inv_bias2;
      value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
}

}  // namespace leapme::nn
