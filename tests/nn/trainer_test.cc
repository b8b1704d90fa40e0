#include "nn/trainer.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace leapme::nn {
namespace {

// A small separable binary problem: label = (x0 + x1 > 0).
void MakeProblem(size_t n, Matrix* inputs, std::vector<int32_t>* labels,
                 uint64_t seed) {
  Rng rng(seed);
  inputs->Resize(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.NextDouble(-1, 1);
    double x1 = rng.NextDouble(-1, 1);
    (*inputs)(i, 0) = static_cast<float>(x0);
    (*inputs)(i, 1) = static_cast<float>(x1);
    (*labels)[i] = (x0 + x1) > 0 ? 1 : 0;
  }
}

TEST(TrainerTest, DefaultScheduleMatchesPaper) {
  TrainerOptions options;
  EXPECT_EQ(options.batch_size, 32u);
  ASSERT_EQ(options.schedule.size(), 3u);
  EXPECT_EQ(options.schedule[0].epochs, 10u);
  EXPECT_DOUBLE_EQ(options.schedule[0].learning_rate, 1e-3);
  EXPECT_EQ(options.schedule[1].epochs, 5u);
  EXPECT_DOUBLE_EQ(options.schedule[1].learning_rate, 1e-4);
  EXPECT_EQ(options.schedule[2].epochs, 5u);
  EXPECT_DOUBLE_EQ(options.schedule[2].learning_rate, 1e-5);
}

TEST(TrainerTest, FitReturnsOneLossPerEpoch) {
  Matrix inputs;
  std::vector<int32_t> labels;
  MakeProblem(128, &inputs, &labels, 3);
  Rng rng(9);
  Mlp mlp = BuildMlp(2, {8}, 2, rng);
  Trainer trainer;
  auto losses = trainer.Fit(mlp, inputs, labels);
  ASSERT_TRUE(losses.ok());
  EXPECT_EQ(losses->size(), 20u);  // 10 + 5 + 5
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  Matrix inputs;
  std::vector<int32_t> labels;
  // Large enough that the paper's 20-epoch schedule performs a healthy
  // number of optimizer steps (batch 32 -> ~40 steps per epoch).
  MakeProblem(1280, &inputs, &labels, 4);
  Rng rng(10);
  Mlp mlp = BuildMlp(2, {8}, 2, rng);
  Trainer trainer;
  auto losses = trainer.Fit(mlp, inputs, labels);
  ASSERT_TRUE(losses.ok());
  EXPECT_LT(losses->back(), losses->front());
  EXPECT_LT(losses->back(), 0.3);
}

TEST(TrainerTest, RejectsEmptyInput) {
  Rng rng(11);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  Trainer trainer;
  Matrix empty;
  std::vector<int32_t> labels;
  EXPECT_FALSE(trainer.Fit(mlp, empty, labels).ok());
}

TEST(TrainerTest, RejectsMismatchedLabels) {
  Rng rng(12);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  Trainer trainer;
  Matrix inputs(4, 2);
  std::vector<int32_t> labels{0, 1};
  EXPECT_FALSE(trainer.Fit(mlp, inputs, labels).ok());
}

TEST(TrainerTest, RejectsZeroBatchSize) {
  TrainerOptions options;
  options.batch_size = 0;
  Trainer trainer(options);
  Rng rng(13);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  Matrix inputs(4, 2);
  std::vector<int32_t> labels{0, 1, 0, 1};
  EXPECT_FALSE(trainer.Fit(mlp, inputs, labels).ok());
}

TEST(TrainerTest, RejectsEmptySchedule) {
  TrainerOptions options;
  options.schedule.clear();
  Trainer trainer(options);
  Rng rng(14);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  Matrix inputs(4, 2);
  std::vector<int32_t> labels{0, 1, 0, 1};
  EXPECT_FALSE(trainer.Fit(mlp, inputs, labels).ok());
}

TEST(TrainerTest, DeterministicWithSameSeeds) {
  Matrix inputs;
  std::vector<int32_t> labels;
  MakeProblem(64, &inputs, &labels, 5);
  auto train_once = [&]() {
    Rng rng(15);
    Mlp mlp = BuildMlp(2, {8}, 2, rng);
    Trainer trainer;
    auto losses = trainer.Fit(mlp, inputs, labels);
    return losses->back();
  };
  EXPECT_DOUBLE_EQ(train_once(), train_once());
}

TEST(TrainerTest, BatchLargerThanDatasetWorks) {
  TrainerOptions options;
  options.batch_size = 1000;
  Trainer trainer(options);
  Matrix inputs;
  std::vector<int32_t> labels;
  MakeProblem(10, &inputs, &labels, 6);
  Rng rng(16);
  Mlp mlp = BuildMlp(2, {4}, 2, rng);
  auto losses = trainer.Fit(mlp, inputs, labels);
  EXPECT_TRUE(losses.ok());
}

}  // namespace
}  // namespace leapme::nn
