#include "nn/mlp.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/temp_dir.h"

namespace leapme::nn {
namespace {

Matrix XorInputs() {
  return Matrix(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
}

std::vector<int32_t> XorLabels() { return {0, 1, 1, 0}; }

TEST(MlpTest, BuildMlpLayerStructure) {
  Rng rng(1);
  Mlp mlp = BuildMlp(10, {128, 64}, 2, rng);
  // Dense-ReLU-Dense-ReLU-Dense.
  ASSERT_EQ(mlp.layer_count(), 5u);
  EXPECT_EQ(mlp.layer(0).TypeName(), "dense");
  EXPECT_EQ(mlp.layer(1).TypeName(), "relu");
  EXPECT_EQ(mlp.layer(2).TypeName(), "dense");
  EXPECT_EQ(mlp.layer(3).TypeName(), "relu");
  EXPECT_EQ(mlp.layer(4).TypeName(), "dense");
}

TEST(MlpTest, ForwardShape) {
  Rng rng(2);
  Mlp mlp = BuildMlp(3, {8}, 2, rng);
  Matrix input(5, 3);
  Matrix logits;
  mlp.Forward(input, &logits);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 2u);
}

TEST(MlpTest, PredictProducesProbabilities) {
  Rng rng(3);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  Matrix probabilities;
  mlp.Infer(XorInputs(), &probabilities);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(probabilities(r, 0) + probabilities(r, 1), 1.0f, 1e-5);
  }
}

TEST(MlpTest, LearnsXor) {
  // XOR is not linearly separable: passing this test requires working
  // hidden-layer backpropagation.
  Rng rng(4);
  Mlp mlp = BuildMlp(2, {8}, 2, rng);
  AdamOptimizer adam(0.05);
  Matrix inputs = XorInputs();
  std::vector<int32_t> labels = XorLabels();
  double loss = 0.0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    loss = mlp.TrainBatch(inputs, labels, adam);
  }
  EXPECT_LT(loss, 0.05);
  Matrix probabilities;
  mlp.Infer(inputs, &probabilities);
  for (size_t r = 0; r < 4; ++r) {
    int32_t predicted = probabilities(r, 1) >= 0.5f ? 1 : 0;
    EXPECT_EQ(predicted, labels[r]) << "row " << r;
  }
}

TEST(MlpTest, TrainBatchDecreasesLossOnSeparableData) {
  Rng rng(5);
  Mlp mlp = BuildMlp(1, {4}, 2, rng);
  Matrix inputs(4, 1, {-2, -1, 1, 2});
  std::vector<int32_t> labels{0, 0, 1, 1};
  AdamOptimizer adam(0.05);
  double first = mlp.TrainBatch(inputs, labels, adam);
  double last = first;
  for (int i = 0; i < 100; ++i) {
    last = mlp.TrainBatch(inputs, labels, adam);
  }
  EXPECT_LT(last, first);
  EXPECT_LT(last, 0.1);
}

TEST(MlpTest, ParametersCoverAllDenseLayers) {
  Rng rng(6);
  Mlp mlp = BuildMlp(3, {5, 4}, 2, rng);
  // Three dense layers, two parameters each.
  EXPECT_EQ(mlp.Parameters().size(), 6u);
}

TEST(MlpSerializationTest, SaveLoadRoundTrip) {
  Rng rng(7);
  Mlp mlp = BuildMlp(3, {4}, 2, rng);
  Matrix input(2, 3, {0.1f, -0.2f, 0.3f, 0.5f, 0.0f, -0.7f});
  Matrix before;
  mlp.Infer(input, &before);

  std::string path = test::ProcessTempPath("mlp_roundtrip.txt");
  ASSERT_TRUE(SaveMlp(mlp, path).ok());
  auto loaded = LoadMlp(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  Matrix after;
  loaded->Infer(input, &after);
  ASSERT_EQ(after.rows(), before.rows());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after.data()[i], before.data()[i], 1e-5);
  }
}

TEST(MlpSerializationTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadMlp("/nonexistent/model.txt").ok());
}

TEST(MlpSerializationTest, LoadRejectsBadHeader) {
  std::string path = test::ProcessTempPath("bad_header.txt");
  {
    std::ofstream out(path);
    out << "not-a-model 1\n";
  }
  auto loaded = LoadMlp(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(MlpSerializationTest, LoadRejectsTruncatedModel) {
  std::string path = test::ProcessTempPath("truncated.txt");
  {
    std::ofstream out(path);
    out << "leapme-mlp 1\n1\ndense\n2 2\n1 2 3\n";  // missing values
  }
  EXPECT_FALSE(LoadMlp(path).ok());
}

TEST(MlpSerializationTest, LoadRejectsUnknownLayerType) {
  std::string path = test::ProcessTempPath("unknown_layer.txt");
  for (const char* layer : {"conv2d\n", "tanh\n", "dropout\n0.5\n"}) {
    {
      std::ofstream out(path);
      out << "leapme-mlp 1\n1\n" << layer;
    }
    auto loaded = LoadMlp(path);
    ASSERT_FALSE(loaded.ok()) << layer;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << layer;
    EXPECT_NE(loaded.status().message().find("unknown layer type"),
              std::string::npos)
        << loaded.status();
  }
}

}  // namespace
}  // namespace leapme::nn
