#include "nn/dense_layer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/loss.h"

namespace leapme::nn {
namespace {

TEST(DenseLayerTest, ForwardAppliesWeightsAndBias) {
  Matrix weights(2, 2, {1, 2, 3, 4});
  DenseLayer layer(weights, {10, 20});
  Matrix input(1, 2, {1, 1});
  Matrix output;
  layer.Forward(input, &output);
  EXPECT_FLOAT_EQ(output(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(output(0, 1), 2 + 4 + 20);
}

TEST(DenseLayerTest, InitializedWithinHeUniformBounds) {
  Rng rng(3);
  DenseLayer layer(100, 50, rng);
  const double limit = std::sqrt(6.0 / 100.0);
  const Matrix& w = layer.weights();
  float max_abs = 0.0f;
  for (size_t i = 0; i < w.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) {
      max_abs = std::max(max_abs, std::fabs(w(i, j)));
    }
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, limit * 0.5);  // not all tiny
  for (size_t j = 0; j < layer.bias().cols(); ++j) {
    EXPECT_FLOAT_EQ(layer.bias()(0, j), 0.0f);
  }
}

TEST(DenseLayerTest, OutputDimChecksInput) {
  Rng rng(5);
  DenseLayer layer(4, 7, rng);
  EXPECT_EQ(layer.OutputDim(4), 7u);
  EXPECT_EQ(layer.input_dim(), 4u);
  EXPECT_EQ(layer.output_dim(), 7u);
}

TEST(DenseLayerTest, ParametersExposeWeightAndBias) {
  Rng rng(7);
  DenseLayer layer(3, 2, rng);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weights");
  EXPECT_EQ(params[1].name, "bias");
  EXPECT_EQ(params[0].value->rows(), 3u);
  EXPECT_EQ(params[1].value->cols(), 2u);
}

// Numerical gradient check: perturb each parameter, compare the measured
// loss slope against the analytic gradient from Backward.
TEST(DenseLayerTest, GradientsMatchNumericalDifferentiation) {
  Rng rng(11);
  DenseLayer layer(3, 2, rng);
  SoftmaxCrossEntropy loss;
  Matrix input(4, 3);
  for (size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  }
  std::vector<int32_t> labels{0, 1, 1, 0};

  auto compute_loss = [&]() {
    Matrix logits;
    layer.Forward(input, &logits);
    Matrix probabilities;
    return loss.Forward(logits, labels, &probabilities);
  };

  // Analytic gradients.
  Matrix logits;
  layer.Forward(input, &logits);
  Matrix probabilities;
  loss.Forward(logits, labels, &probabilities);
  Matrix grad_logits;
  loss.Backward(probabilities, labels, &grad_logits);
  Matrix grad_input;
  layer.Backward(grad_logits, &grad_input);

  auto params = layer.Parameters();
  const double epsilon = 1e-3;
  for (const Parameter& p : params) {
    for (size_t i = 0; i < p.value->size(); ++i) {
      float original = p.value->data()[i];
      p.value->data()[i] = original + static_cast<float>(epsilon);
      double loss_plus = compute_loss();
      p.value->data()[i] = original - static_cast<float>(epsilon);
      double loss_minus = compute_loss();
      p.value->data()[i] = original;
      double numerical = (loss_plus - loss_minus) / (2 * epsilon);
      double analytic = p.gradient->data()[i];
      EXPECT_NEAR(analytic, numerical, 5e-3)
          << p.name << " element " << i;
    }
  }
}

TEST(DenseLayerTest, InputGradientMatchesNumerical) {
  Rng rng(13);
  DenseLayer layer(3, 2, rng);
  SoftmaxCrossEntropy loss;
  Matrix input(2, 3);
  for (size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  }
  std::vector<int32_t> labels{1, 0};

  Matrix logits;
  layer.Forward(input, &logits);
  Matrix probabilities;
  loss.Forward(logits, labels, &probabilities);
  Matrix grad_logits;
  loss.Backward(probabilities, labels, &grad_logits);
  Matrix grad_input;
  layer.Backward(grad_logits, &grad_input);

  const double epsilon = 1e-3;
  for (size_t i = 0; i < input.size(); ++i) {
    float original = input.data()[i];
    input.data()[i] = original + static_cast<float>(epsilon);
    Matrix l1;
    layer.Forward(input, &l1);
    Matrix p1;
    double loss_plus = loss.Forward(l1, labels, &p1);
    input.data()[i] = original - static_cast<float>(epsilon);
    Matrix l2;
    layer.Forward(input, &l2);
    Matrix p2;
    double loss_minus = loss.Forward(l2, labels, &p2);
    input.data()[i] = original;
    double numerical = (loss_plus - loss_minus) / (2 * epsilon);
    EXPECT_NEAR(grad_input.data()[i], numerical, 5e-3) << "input " << i;
  }
}

TEST(DenseLayerTest, NullInputGradientLeavesParameterGradientsUnchanged) {
  // The first layer of a network skips dLoss/dInput; its weight and bias
  // gradients must be bit-identical to a full Backward.
  Rng rng(13);
  DenseLayer full(3, 2, rng);
  DenseLayer skip(full.weights(), {full.bias()(0, 0), full.bias()(0, 1)});
  Matrix input(4, 3);
  Matrix grad_output(4, 2);
  for (size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  }
  for (size_t i = 0; i < grad_output.size(); ++i) {
    grad_output.data()[i] = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  }
  Matrix output;
  Matrix grad_input;
  full.Forward(input, &output);
  full.Backward(grad_output, &grad_input);
  skip.Forward(input, &output);
  skip.Backward(grad_output, nullptr);
  auto expected = full.Parameters();
  auto actual = skip.Parameters();
  for (size_t p = 0; p < expected.size(); ++p) {
    const Matrix& a = *expected[p].gradient;
    const Matrix& b = *actual[p].gradient;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.data()[i], b.data()[i]) << expected[p].name << " " << i;
    }
  }
}

}  // namespace
}  // namespace leapme::nn
