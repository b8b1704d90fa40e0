#ifndef LEAPME_NN_MATRIX_H_
#define LEAPME_NN_MATRIX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/kernels/aligned.h"

namespace leapme::nn {

/// Dense row-major float matrix — the numeric workhorse of the NN library.
/// Deliberately minimal: shape, element access, and the handful of BLAS-like
/// kernels the MLP needs (GEMM with optional transposes, row/column
/// reductions, elementwise ops).
///
/// Storage is 64-byte aligned (kernels::kStorageAlignment): data() — and
/// therefore row 0 — always starts on a cache-line boundary, so the
/// vectorized kernel layer never straddles a vector boundary on its first
/// element. Interior rows are only aligned when cols() is a multiple of
/// 16; kernels use unaligned loads and rely on the base alignment for
/// cache-friendliness, not correctness.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// rows x cols matrix initialized from `values` (row-major,
  /// size must equal rows*cols).
  Matrix(size_t rows, size_t cols, std::vector<float> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// View of row `r`.
  std::span<float> row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Reshapes to rows x cols, discarding contents (zero-filled).
  void Resize(size_t rows, size_t cols);

  /// Sets every element to `value`.
  void Fill(float value);

  /// Returns a new matrix holding rows [begin, end) of this matrix.
  Matrix RowSlice(size_t begin, size_t end) const;

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);

  /// this *= s.
  void ScaleInPlace(float s);

  /// Human-readable shape string "RxC".
  std::string ShapeString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  kernels::AlignedFloatVector data_;
};

/// out = a * b. Shapes: (n x k) * (k x m) -> (n x m). `out` is resized.
/// Above ~2M multiply-accumulates the work is row-partitioned across the
/// global thread pool (common/parallel.h); the parallel and sequential
/// paths share one per-row kernel, so results are bit-identical at any
/// thread count. The same applies to the transposed variants below.
/// Inner loops run on the dispatched kernel layer (common/kernels), whose
/// canonical reduction order keeps results bit-identical across the
/// scalar and AVX2 paths as well. NaN/Inf anywhere in either operand
/// propagates to the affected output cells (no zero-multiplier
/// shortcuts).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: (k x n)^T * (k x m) -> (n x m).
void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: (n x k) * (m x k)^T -> (n x m). Runs the
/// cache-blocked, register-tiled kernel-layer GEMM under the row
/// partitioning.
void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* out);

/// out[c] = sum over rows of m(r, c). `out` is resized to m.cols().
void ColumnSums(const Matrix& m, std::vector<float>* out);

/// Adds `bias` (length = m.cols()) to every row of `m`.
void AddRowVector(Matrix* m, std::span<const float> bias);

}  // namespace leapme::nn

#endif  // LEAPME_NN_MATRIX_H_
