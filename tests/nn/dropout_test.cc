#include <cmath>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "tests/temp_dir.h"

namespace leapme::nn {
namespace {

TEST(DropoutTest, InferenceModeIsIdentity) {
  DropoutLayer dropout(0.5);
  dropout.SetTraining(false);
  Matrix input(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix output;
  dropout.Forward(input, &output);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_FLOAT_EQ(output.data()[i], input.data()[i]);
  }
}

TEST(DropoutTest, ZeroRateIsIdentityInTraining) {
  DropoutLayer dropout(0.0);
  dropout.SetTraining(true);
  Matrix input(1, 4, {1, 2, 3, 4});
  Matrix output;
  dropout.Forward(input, &output);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_FLOAT_EQ(output.data()[i], input.data()[i]);
  }
}

TEST(DropoutTest, TrainingDropsApproximatelyRateFraction) {
  DropoutLayer dropout(0.4, /*seed=*/9);
  dropout.SetTraining(true);
  Matrix input(100, 100);
  input.Fill(1.0f);
  Matrix output;
  dropout.Forward(input, &output);
  size_t zeros = 0;
  for (size_t i = 0; i < output.size(); ++i) {
    if (output.data()[i] == 0.0f) {
      ++zeros;
    } else {
      // Survivors are scaled by 1/(1-rate).
      EXPECT_NEAR(output.data()[i], 1.0f / 0.6f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / output.size(), 0.4, 0.02);
}

TEST(DropoutTest, ExpectedValuePreserved) {
  // Inverted dropout keeps E[output] = input.
  DropoutLayer dropout(0.3, /*seed=*/10);
  dropout.SetTraining(true);
  Matrix input(200, 50);
  input.Fill(2.0f);
  Matrix output;
  dropout.Forward(input, &output);
  double sum = 0.0;
  for (size_t i = 0; i < output.size(); ++i) {
    sum += output.data()[i];
  }
  EXPECT_NEAR(sum / output.size(), 2.0, 0.05);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  DropoutLayer dropout(0.5, /*seed=*/11);
  dropout.SetTraining(true);
  Matrix input(1, 64);
  input.Fill(1.0f);
  Matrix output;
  dropout.Forward(input, &output);
  Matrix grad_out(1, 64);
  grad_out.Fill(1.0f);
  Matrix grad_in;
  dropout.Backward(grad_out, &grad_in);
  for (size_t i = 0; i < output.size(); ++i) {
    // Gradient flows exactly where the activation survived.
    EXPECT_FLOAT_EQ(grad_in.data()[i], output.data()[i]);
  }
}

TEST(DropoutTest, BuildMlpInsertsDropoutLayers) {
  Rng rng(12);
  Mlp mlp = BuildMlp(4, {8, 8}, 2, rng, /*dropout_rate=*/0.2);
  // Dense-ReLU-Dropout-Dense-ReLU-Dropout-Dense.
  ASSERT_EQ(mlp.layer_count(), 7u);
  EXPECT_EQ(mlp.layer(2).TypeName(), "dropout");
  EXPECT_EQ(mlp.layer(5).TypeName(), "dropout");
}

TEST(DropoutTest, PredictIsDeterministicDespiteDropout) {
  Rng rng(13);
  Mlp mlp = BuildMlp(4, {8}, 2, rng, /*dropout_rate=*/0.5);
  Matrix input(3, 4);
  input.Fill(0.5f);
  Matrix first;
  Matrix second;
  mlp.Predict(input, &first);
  mlp.Predict(input, &second);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(first.data()[i], second.data()[i]);
  }
}

TEST(DropoutTest, SerializationRoundTrip) {
  Rng rng(14);
  Mlp mlp = BuildMlp(3, {4}, 2, rng, /*dropout_rate=*/0.25);
  std::string path = test::ProcessTempPath("dropout_mlp.txt");
  ASSERT_TRUE(SaveMlp(mlp, path).ok());
  auto loaded = LoadMlp(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->layer_count(), mlp.layer_count());
  EXPECT_EQ(loaded->layer(2).TypeName(), "dropout");
  // Predictions agree (dropout disabled at inference).
  Matrix input(2, 3, {0.1f, 0.2f, 0.3f, -0.1f, 0.0f, 0.5f});
  Matrix a, b;
  mlp.Predict(input, &a);
  loaded->Predict(input, &b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-5);
  }
}

TEST(DropoutDeathTest, RejectsInvalidRate) {
  EXPECT_DEATH(DropoutLayer(1.0), "Check failed");
  EXPECT_DEATH(DropoutLayer(-0.1), "Check failed");
}

TEST(EarlyStoppingTest, StopsBeforeFullSchedule) {
  // Random labels: validation loss cannot keep improving, so training
  // stops early with patience 2.
  Rng rng(15);
  Matrix inputs(300, 4);
  std::vector<int32_t> labels(300);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(rng.NextDouble(-1, 1));
  }
  for (auto& label : labels) {
    label = static_cast<int32_t>(rng.NextBounded(2));
  }
  TrainerOptions options;
  options.validation_fraction = 0.25;
  options.patience = 2;
  options.schedule = {{50, 1e-3}};
  Trainer trainer(options);
  Mlp mlp = BuildMlp(4, {16}, 2, rng);
  auto losses = trainer.Fit(mlp, inputs, labels);
  ASSERT_TRUE(losses.ok());
  EXPECT_LT(losses->size(), 50u);
}

TEST(EarlyStoppingTest, SeparableDataRunsFullSchedule) {
  Rng rng(16);
  Matrix inputs(200, 1);
  std::vector<int32_t> labels(200);
  for (size_t i = 0; i < 200; ++i) {
    double x = rng.NextDouble(-1, 1);
    inputs(i, 0) = static_cast<float>(x);
    labels[i] = x > 0 ? 1 : 0;
  }
  TrainerOptions options;
  options.validation_fraction = 0.2;
  options.patience = 5;
  Trainer trainer(options);
  Mlp mlp = BuildMlp(1, {8}, 2, rng);
  auto losses = trainer.Fit(mlp, inputs, labels);
  ASSERT_TRUE(losses.ok());
  // On cleanly learnable data validation keeps improving long enough to
  // finish (or nearly finish) the 20-epoch schedule.
  EXPECT_GE(losses->size(), 10u);
}

TEST(EarlyStoppingTest, InvalidFractionRejected) {
  TrainerOptions options;
  options.validation_fraction = 1.5;
  Trainer trainer(options);
  Rng rng(17);
  Mlp mlp = BuildMlp(1, {4}, 2, rng);
  Matrix inputs(4, 1);
  std::vector<int32_t> labels{0, 1, 0, 1};
  EXPECT_FALSE(trainer.Fit(mlp, inputs, labels).ok());
}

}  // namespace
}  // namespace leapme::nn
