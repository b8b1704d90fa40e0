#include "cli/commands.h"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/tsv_io.h"
#include "tests/temp_dir.h"

namespace leapme::cli {
namespace {

StatusOr<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "leapme");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

std::string TempPath(const char* name) {
  return test::ProcessTempPath(name);
}

TEST(GenerateCommandTest, WritesReadableTsv) {
  std::string out = TempPath("cli_gen.tsv");
  auto flags = ParseArgs({"generate", "--domain", "headphones", "--sources",
                          "4", "--entities", "6", "--seed", "3", "--out",
                          out.c_str()});
  ASSERT_TRUE(flags.ok());
  ASSERT_TRUE(RunGenerate(*flags).ok());
  auto dataset = data::ReadDatasetTsv(out);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->source_count(), 4u);
  EXPECT_GT(dataset->CountMatchingPairs(), 0u);
}

TEST(GenerateCommandTest, UnknownDomainFails) {
  auto flags = ParseArgs({"generate", "--domain", "spaceships"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(RunGenerate(*flags).ok());
}

TEST(GenerateCommandTest, UnknownFlagFails) {
  auto flags = ParseArgs({"generate", "--domain", "tvs", "--sorces", "4"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunGenerate(*flags).IsInvalidArgument());
}

class PipelineCommandsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = new std::string(TempPath("cli_pipeline.tsv"));
    auto flags =
        ParseArgs({"generate", "--domain", "tvs", "--sources", "5",
                   "--entities", "8", "--seed", "21", "--out",
                   data_path_->c_str()});
    ASSERT_TRUE(RunGenerate(*flags).ok());
  }

  static StatusOr<Flags> ParseArgs(std::vector<const char*> argv) {
    return cli::ParseArgs(std::move(argv));
  }

  static std::string* data_path_;
};

std::string* PipelineCommandsTest::data_path_ = nullptr;

TEST_F(PipelineCommandsTest, EvaluateRuns) {
  auto flags = ParseArgs({"evaluate", "--data", data_path_->c_str(),
                          "--domain", "tvs", "--emb-dim", "16",
                          "--train-fraction", "0.6"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunEvaluate(*flags).ok());
}

TEST_F(PipelineCommandsTest, EvaluateWithoutDataFails) {
  auto flags = ParseArgs({"evaluate", "--domain", "tvs"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunEvaluate(*flags).IsInvalidArgument());
}

TEST_F(PipelineCommandsTest, EvaluateBadFeaturesFails) {
  auto flags = ParseArgs({"evaluate", "--data", data_path_->c_str(),
                          "--features", "everything/nothing"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(RunEvaluate(*flags).ok());
}

TEST_F(PipelineCommandsTest, MatchRuns) {
  auto flags = ParseArgs({"match", "--data", data_path_->c_str(),
                          "--domain", "tvs", "--emb-dim", "16",
                          "--limit", "3"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunMatch(*flags).ok());
}

TEST_F(PipelineCommandsTest, ClusterRuns) {
  auto flags = ParseArgs({"cluster", "--data", data_path_->c_str(),
                          "--domain", "tvs", "--emb-dim", "16"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunCluster(*flags).ok());
}

TEST_F(PipelineCommandsTest, StatsRuns) {
  auto flags = ParseArgs({"stats", "--data", data_path_->c_str()});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunStats(*flags).ok());
}

TEST_F(PipelineCommandsTest, StatsRequiresData) {
  auto flags = ParseArgs({"stats"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(RunStats(*flags).IsInvalidArgument());
}

TEST_F(PipelineCommandsTest, ModelOutWritesModel) {
  std::string model_path = TempPath("cli_model.model");
  auto flags = ParseArgs({"evaluate", "--data", data_path_->c_str(),
                          "--domain", "tvs", "--emb-dim", "16",
                          "--model-out", model_path.c_str()});
  ASSERT_TRUE(flags.ok());
  ASSERT_TRUE(RunEvaluate(*flags).ok());
  std::ifstream check(model_path);
  EXPECT_TRUE(check.good());
}

TEST(RunCliTest, DispatchesAndReportsUsage) {
  const char* help[] = {"leapme"};
  EXPECT_EQ(RunCli(1, help), 0);  // bare invocation prints usage, exit 0
  const char* unknown[] = {"leapme", "frobnicate"};
  EXPECT_EQ(RunCli(2, unknown), 2);
  const char* bad_flag[] = {"leapme", "generate", "--out"};
  EXPECT_EQ(RunCli(3, bad_flag), 2);
  const char* failing[] = {"leapme", "evaluate", "--data", "/nonexistent"};
  EXPECT_EQ(RunCli(4, failing), 1);
}

}  // namespace
}  // namespace leapme::cli
