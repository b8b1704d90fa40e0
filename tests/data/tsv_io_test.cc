#include "data/tsv_io.h"

#include <fstream>

#include <gtest/gtest.h>

#include "tests/temp_dir.h"

namespace leapme::data {
namespace {

std::string TempPath(const std::string& name) {
  return test::ProcessTempPath(name);
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

TEST(TsvIoTest, ReadsWellFormedFile) {
  std::string path = TempPath("well_formed.tsv");
  WriteFile(path,
            "source\tentity\tproperty\tvalue\treference\n"
            "shop_a\te1\tresolution\t24.3 MP\tresolution\n"
            "shop_a\te2\tresolution\t20 MP\tresolution\n"
            "shop_b\tx1\tmegapixels\t24 MP\tresolution\n"
            "shop_b\tx1\tcol_3\tzz\t\n");
  auto dataset = ReadDatasetTsv(path, "cams");
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->name(), "cams");
  EXPECT_EQ(dataset->source_count(), 2u);
  EXPECT_EQ(dataset->property_count(), 3u);
  EXPECT_EQ(dataset->instance_count(), 4u);
  EXPECT_EQ(dataset->instances(0).size(), 2u);
  EXPECT_TRUE(dataset->IsMatch(0, 1));
  EXPECT_EQ(dataset->property(2).reference, "");
}

TEST(TsvIoTest, FourColumnLinesHaveEmptyReference) {
  std::string path = TempPath("four_cols.tsv");
  WriteFile(path,
            "source\tentity\tproperty\tvalue\treference\n"
            "s\te\tp\tv\n");
  auto dataset = ReadDatasetTsv(path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->property(0).reference, "");
}

TEST(TsvIoTest, MissingFileIsIoError) {
  auto dataset = ReadDatasetTsv("/nonexistent/data.tsv");
  EXPECT_FALSE(dataset.ok());
  EXPECT_TRUE(dataset.status().IsIoError());
}

TEST(TsvIoTest, MissingHeaderIsCorruption) {
  std::string path = TempPath("no_header.tsv");
  WriteFile(path, "shop_a\te1\tresolution\t24.3 MP\tr\n");
  auto dataset = ReadDatasetTsv(path);
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kCorruption);
}

TEST(TsvIoTest, WrongFieldCountIsCorruption) {
  std::string path = TempPath("bad_fields.tsv");
  WriteFile(path,
            "source\tentity\tproperty\tvalue\treference\n"
            "only\ttwo\n");
  EXPECT_FALSE(ReadDatasetTsv(path).ok());
}

TEST(TsvIoTest, EmptySourceOrPropertyIsCorruption) {
  std::string path = TempPath("empty_source.tsv");
  WriteFile(path,
            "source\tentity\tproperty\tvalue\treference\n"
            "\te\tp\tv\tr\n");
  EXPECT_FALSE(ReadDatasetTsv(path).ok());
}

TEST(TsvIoTest, EmptyFileIsCorruption) {
  std::string path = TempPath("empty.tsv");
  WriteFile(path, "");
  EXPECT_FALSE(ReadDatasetTsv(path).ok());
}

TEST(TsvIoTest, HandlesCrLfLineEndings) {
  std::string path = TempPath("crlf.tsv");
  WriteFile(path,
            "source\tentity\tproperty\tvalue\treference\r\n"
            "s\te\tp\tv\tr\r\n");
  auto dataset = ReadDatasetTsv(path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->instances(0)[0].value, "v");
}

TEST(TsvIoTest, RoundTripPreservesContent) {
  Dataset original("roundtrip");
  SourceId s0 = original.AddSource("shop_a");
  SourceId s1 = original.AddSource("shop_b");
  PropertyId p0 = original.AddProperty(s0, "weight", "weight");
  PropertyId p1 = original.AddProperty(s1, "mass", "weight");
  original.AddInstance(p0, "e1", "520 g");
  original.AddInstance(p0, "e2", "610 g");
  original.AddInstance(p1, "x1", "0.5 kg");

  std::string path = TempPath("roundtrip.tsv");
  ASSERT_TRUE(WriteDatasetTsv(original, path).ok());
  auto loaded = ReadDatasetTsv(path, "roundtrip");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->source_count(), original.source_count());
  EXPECT_EQ(loaded->property_count(), original.property_count());
  EXPECT_EQ(loaded->instance_count(), original.instance_count());
  EXPECT_EQ(loaded->property(0).reference, "weight");
  EXPECT_TRUE(loaded->IsMatch(0, 1));
  EXPECT_EQ(loaded->instances(0)[1].value, "610 g");
}

TEST(TsvIoTest, WriteSanitizesTabsAndNewlines) {
  Dataset original("dirty");
  SourceId s0 = original.AddSource("shop");
  PropertyId p0 = original.AddProperty(s0, "notes", "");
  original.AddInstance(p0, "e1", "line1\nline2\twith tab");

  std::string path = TempPath("sanitized.tsv");
  ASSERT_TRUE(WriteDatasetTsv(original, path).ok());
  auto loaded = ReadDatasetTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->instances(0)[0].value, "line1 line2 with tab");
}

TEST(TsvIoTest, WriteToUnwritablePathFails) {
  Dataset dataset("x");
  EXPECT_FALSE(WriteDatasetTsv(dataset, "/nonexistent/dir/file.tsv").ok());
}

}  // namespace
}  // namespace leapme::data
