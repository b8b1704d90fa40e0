#include "nn/matrix.h"

#include <algorithm>

#include "common/kernels/kernels.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace leapme::nn {

namespace {

// The GEMMs fan out over output rows once the multiply-accumulate count
// amortizes a pool wakeup (a few microseconds). Both paths run the same
// per-row kernel, so sequential and parallel results are bit-identical.
constexpr size_t kGemmParallelMacs = size_t{1} << 21;  // ~2M mul-adds
constexpr size_t kGemmChunkMacs = size_t{1} << 18;     // ~256k per chunk

bool UseParallelGemm(size_t n, size_t k, size_t m) {
  return n > 1 && k * m > 0 && n * k * m >= kGemmParallelMacs;
}

size_t GemmRowGrain(size_t k, size_t m) {
  return std::max<size_t>(1, kGemmChunkMacs / std::max<size_t>(1, k * m));
}

// out rows [r0, r1) of a * b, i-k-j order: the inner loop is a contiguous
// AXPY over B and OUT rows on the dispatched kernel layer. Every
// multiplier is applied — a zero in A must still propagate NaN/Inf from
// the B row (0 * NaN = NaN), so there is deliberately no zero-skip here.
void GemmRows(const Matrix& a, const Matrix& b, Matrix* out, size_t r0,
              size_t r1) {
  const kernels::KernelTable& kernel = kernels::Active();
  const size_t k = a.cols();
  const size_t m = b.cols();
  for (size_t i = r0; i < r1; ++i) {
    const float* a_row = a.data() + i * k;
    float* out_row = out->data() + i * m;
    for (size_t kk = 0; kk < k; ++kk) {
      kernel.axpy(a_row[kk], b.data() + kk * m, out_row, m);
    }
  }
}

// out rows [r0, r1) of a^T * b. Accumulation runs over kk ascending per
// element, exactly like the k-outer sequential loop, so both orders
// produce identical bits; this i-outer form gives each thread a disjoint
// band of output rows. As in GemmRows, zero multipliers are not skipped
// so non-finite values in B always propagate.
void GemmTransposeARows(const Matrix& a, const Matrix& b, Matrix* out,
                        size_t r0, size_t r1) {
  const kernels::KernelTable& kernel = kernels::Active();
  const size_t k = a.rows();
  const size_t n = a.cols();
  const size_t m = b.cols();
  for (size_t i = r0; i < r1; ++i) {
    float* out_row = out->data() + i * m;
    for (size_t kk = 0; kk < k; ++kk) {
      kernel.axpy(a.data()[kk * n + i], b.data() + kk * m, out_row, m);
    }
  }
}

// out rows [r0, r1) of a * b^T (dot products of row pairs) on the
// blocked kernel-layer GEMM.
void GemmTransposeBRows(const Matrix& a, const Matrix& b, Matrix* out,
                        size_t r0, size_t r1) {
  const size_t k = a.cols();
  const size_t m = b.rows();
  kernels::Active().gemm_tb(a.data() + r0 * k, b.data(),
                            out->data() + r0 * m, r1 - r0, k, m);
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> values)
    : rows_(rows), cols_(cols), data_(values.begin(), values.end()) {
  LEAPME_CHECK_EQ(data_.size(), rows * cols);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::RowSlice(size_t begin, size_t end) const {
  LEAPME_CHECK_LE(begin, end);
  LEAPME_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
            out.data_.begin());
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  LEAPME_CHECK_EQ(rows_, other.rows_);
  LEAPME_CHECK_EQ(cols_, other.cols_);
  kernels::Active().add(other.data_.data(), data_.data(), data_.size());
}

void Matrix::ScaleInPlace(float s) {
  kernels::Active().scale(s, data_.data(), data_.size());
}

std::string Matrix::ShapeString() const {
  return StrFormat("%zux%zu", rows_, cols_);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  LEAPME_CHECK_EQ(a.cols(), b.rows());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  out->Resize(n, m);
  if (UseParallelGemm(n, k, m)) {
    ParallelFor(0, n, GemmRowGrain(k, m),
                [&](size_t r0, size_t r1) { GemmRows(a, b, out, r0, r1); });
  } else {
    GemmRows(a, b, out, 0, n);
  }
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* out) {
  LEAPME_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows();
  const size_t n = a.cols();
  const size_t m = b.cols();
  out->Resize(n, m);
  if (UseParallelGemm(n, k, m)) {
    ParallelFor(0, n, GemmRowGrain(k, m), [&](size_t r0, size_t r1) {
      GemmTransposeARows(a, b, out, r0, r1);
    });
    return;
  }
  // Sequential path keeps the cache-friendly k-outer order (contiguous
  // reads of A and B rows); per-element accumulation order matches the
  // row-banded parallel kernel, so results are bit-identical. No
  // zero-skip (see GemmRows).
  const kernels::KernelTable& kernel = kernels::Active();
  for (size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a.data() + kk * n;
    const float* b_row = b.data() + kk * m;
    for (size_t i = 0; i < n; ++i) {
      kernel.axpy(a_row[i], b_row, out->data() + i * m, m);
    }
  }
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* out) {
  LEAPME_CHECK_EQ(a.cols(), b.cols());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.rows();
  out->Resize(n, m);
  if (UseParallelGemm(n, k, m)) {
    ParallelFor(0, n, GemmRowGrain(k, m), [&](size_t r0, size_t r1) {
      GemmTransposeBRows(a, b, out, r0, r1);
    });
  } else {
    GemmTransposeBRows(a, b, out, 0, n);
  }
}

void ColumnSums(const Matrix& m, std::vector<float>* out) {
  out->assign(m.cols(), 0.0f);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (size_t c = 0; c < m.cols(); ++c) {
      (*out)[c] += row[c];
    }
  }
}

void AddRowVector(Matrix* m, std::span<const float> bias) {
  LEAPME_CHECK_EQ(m->cols(), bias.size());
  for (size_t r = 0; r < m->rows(); ++r) {
    float* row = m->data() + r * m->cols();
    for (size_t c = 0; c < m->cols(); ++c) {
      row[c] += bias[c];
    }
  }
}

}  // namespace leapme::nn
