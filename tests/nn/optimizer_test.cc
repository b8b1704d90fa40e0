#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace leapme::nn {
namespace {

// A single scalar parameter with a quadratic loss L(w) = 0.5 * w^2, whose
// gradient is w itself: any sane optimizer drives w toward 0.
struct ScalarProblem {
  Matrix value{1, 1, {5.0f}};
  Matrix gradient{1, 1};

  std::vector<Parameter> params() {
    return {{"w", &value, &gradient}};
  }
  void ComputeGradient() { gradient(0, 0) = value(0, 0); }
  float w() const { return value(0, 0); }
};

TEST(AdamTest, ConvergesOnQuadratic) {
  ScalarProblem problem;
  AdamOptimizer adam(0.3);
  for (int i = 0; i < 400; ++i) {
    problem.ComputeGradient();
    adam.Step(problem.params());
  }
  EXPECT_NEAR(problem.w(), 0.0f, 1e-2);
}

TEST(AdamTest, FirstStepSizeIsLearningRate) {
  // With bias correction, the very first Adam step has magnitude ~lr.
  ScalarProblem problem;
  AdamOptimizer adam(0.1);
  problem.ComputeGradient();
  adam.Step(problem.params());
  EXPECT_NEAR(problem.w(), 5.0f - 0.1f, 1e-3);
}

TEST(OptimizerTest, LearningRateMutable) {
  AdamOptimizer adam(0.1);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.1);
  adam.set_learning_rate(0.01);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.01);
}

TEST(OptimizerTest, MultipleParametersUpdatedIndependently) {
  Matrix w1(1, 1, {1.0f});
  Matrix g1(1, 1, {1.0f});
  Matrix w2(1, 1, {2.0f});
  Matrix g2(1, 1, {-1.0f});
  std::vector<Parameter> params{{"w1", &w1, &g1}, {"w2", &w2, &g2}};
  // Each parameter keeps its own moments, so the first Adam step moves
  // each by ~lr against the sign of its own gradient.
  AdamOptimizer adam(0.5);
  adam.Step(params);
  EXPECT_NEAR(w1(0, 0), 0.5f, 1e-4);
  EXPECT_NEAR(w2(0, 0), 2.5f, 1e-4);
}

}  // namespace
}  // namespace leapme::nn
