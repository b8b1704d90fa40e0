#include "nn/matrix.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace leapme::nn {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 0.0f);
  m(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 5.0f);
}

TEST(MatrixTest, FromValues) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(m(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 4.0f);
}

TEST(MatrixTest, RowView) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = m.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_FLOAT_EQ(row[0], 4.0f);
  row[0] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 9.0f);
}

TEST(MatrixTest, ResizeZeroes) {
  Matrix m(1, 1, {7});
  m.Resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(MatrixTest, FillAndScale) {
  Matrix m(2, 2);
  m.Fill(3.0f);
  m.ScaleInPlace(2.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 6.0f);
}

TEST(MatrixTest, RowSlice) {
  Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix slice = m.RowSlice(1, 3);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_FLOAT_EQ(slice(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(slice(1, 1), 6.0f);
}

TEST(MatrixTest, AddInPlace) {
  Matrix a(1, 2, {1, 2});
  Matrix b(1, 2, {10, 20});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 22.0f);
}

TEST(MatrixTest, ShapeString) {
  EXPECT_EQ(Matrix(3, 4).ShapeString(), "3x4");
}

TEST(GemmTest, KnownProduct) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix out;
  Gemm(a, b, &out);
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  EXPECT_FLOAT_EQ(out(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 154.0f);
}

TEST(GemmTest, IdentityPreserves) {
  Matrix identity(2, 2, {1, 0, 0, 1});
  Matrix a(2, 2, {3, 4, 5, 6});
  Matrix out;
  Gemm(a, identity, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 6.0f);
}

TEST(GemmTransposeATest, MatchesManualTranspose) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});  // a^T is 2x3
  Matrix b(3, 2, {1, 0, 0, 1, 1, 1});
  Matrix out;
  GemmTransposeA(a, b, &out);
  // a^T * b = [[1 3 5],[2 4 6]] * [[1 0],[0 1],[1 1]] = [[6 8],[8 10]]
  EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 8.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 10.0f);
}

TEST(GemmTransposeBTest, MatchesManualTranspose) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(2, 3, {1, 0, 1, 0, 1, 0});  // b^T is 3x2
  Matrix out;
  GemmTransposeB(a, b, &out);
  // a * b^T = [[1+3, 2],[4+6, 5]] = [[4 2],[10 5]]
  EXPECT_FLOAT_EQ(out(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 5.0f);
}

TEST(GemmTest, ZeroTimesNonFinitePropagatesNaN) {
  // Regression: the old i-k-j loop skipped a_ik == 0 multipliers, which
  // silently dropped NaN/Inf from B (IEEE 754: 0 * NaN = NaN and
  // 0 * Inf = NaN). All three GEMM variants must propagate.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Matrix a(2, 2, {0, 0, 0, 0});
  Matrix b(2, 2, {nan, inf, 1, 1});
  Matrix out;
  Gemm(a, b, &out);
  EXPECT_TRUE(std::isnan(out(0, 0)));
  EXPECT_TRUE(std::isnan(out(0, 1)));  // 0*inf + 0*1 = nan
  EXPECT_TRUE(std::isnan(out(1, 0)));

  GemmTransposeA(a, b, &out);
  EXPECT_TRUE(std::isnan(out(0, 0)));
  EXPECT_TRUE(std::isnan(out(1, 1)));

  GemmTransposeB(a, b, &out);
  EXPECT_TRUE(std::isnan(out(0, 0)));
  EXPECT_TRUE(std::isnan(out(1, 0)));
}

TEST(MatrixTest, StorageIsCacheLineAligned) {
  // The kernel layer is entitled to assume data() starts on a 64-byte
  // boundary (common/kernels/aligned.h).
  for (size_t rows : {1u, 3u, 17u}) {
    Matrix m(rows, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) %
                  leapme::kernels::kStorageAlignment,
              0u);
    m.Resize(rows + 1, 9);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) %
                  leapme::kernels::kStorageAlignment,
              0u);
  }
}

TEST(ColumnSumsTest, SumsColumns) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<float> sums;
  ColumnSums(m, &sums);
  EXPECT_EQ(sums, (std::vector<float>{5, 7, 9}));
}

TEST(AddRowVectorTest, AddsToEveryRow) {
  Matrix m(2, 2, {1, 1, 2, 2});
  std::vector<float> bias{10, 20};
  AddRowVector(&m, bias);
  EXPECT_FLOAT_EQ(m(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 12.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 22.0f);
}

}  // namespace
}  // namespace leapme::nn
