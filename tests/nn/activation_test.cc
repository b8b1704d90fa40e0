#include "nn/activation.h"

#include <gtest/gtest.h>

namespace leapme::nn {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  ReluLayer relu;
  Matrix input(1, 4, {-2, -0.5, 0, 3});
  Matrix output;
  relu.Forward(input, &output);
  EXPECT_FLOAT_EQ(output(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(output(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(output(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(output(0, 3), 3.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  ReluLayer relu;
  Matrix input(1, 4, {-2, -0.5, 0, 3});
  Matrix output;
  relu.Forward(input, &output);
  Matrix grad_out(1, 4, {1, 1, 1, 1});
  Matrix grad_in;
  relu.Backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(grad_in(0, 2), 0.0f);  // gradient at exactly 0 is 0
  EXPECT_FLOAT_EQ(grad_in(0, 3), 1.0f);
}

TEST(ReluTest, OutputDimIsIdentity) {
  ReluLayer relu;
  EXPECT_EQ(relu.OutputDim(17), 17u);
  EXPECT_TRUE(relu.Parameters().empty());
  EXPECT_EQ(relu.TypeName(), "relu");
}

}  // namespace
}  // namespace leapme::nn
