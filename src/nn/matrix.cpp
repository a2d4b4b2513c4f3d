#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace crowdlearn::nn {

namespace detail {
// Two instantiations of the tiled kernel body (nn/gemm_tiled.hpp): the
// portable one is always linked; the AVX-512 one exists only when the
// build could compile it (CL_GEMM_AVX512, set by src/CMakeLists.txt).
void gemm_tiled_rows_generic(const double* a, const double* b, double* out,
                             std::size_t row_begin, std::size_t row_end, std::size_t k_dim,
                             std::size_t p);
#ifdef CL_GEMM_AVX512
void gemm_tiled_rows_avx512(const double* a, const double* b, double* out,
                            std::size_t row_begin, std::size_t row_end, std::size_t k_dim,
                            std::size_t p);
#endif
}  // namespace detail

namespace {

using GemmRowsFn = void (*)(const double*, const double*, double*, std::size_t, std::size_t,
                            std::size_t, std::size_t);

// Resolve the widest tiled instantiation this host can execute. Both
// produce identical bits; this is a throughput choice only, made once.
GemmRowsFn resolve_tiled_kernel() {
#if defined(CL_GEMM_AVX512) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f")) return &detail::gemm_tiled_rows_avx512;
#endif
  return &detail::gemm_tiled_rows_generic;
}

const GemmRowsFn g_tiled_rows = resolve_tiled_kernel();

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols)
    throw std::invalid_argument("Matrix: data size does not match dimensions");
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) throw std::invalid_argument("Matrix::from_rows: empty input");
  const std::size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols)
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix: index out of range");
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row: index out of range");
  return std::vector<double>(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

void Matrix::set_row(std::size_t r, const std::vector<double>& values) {
  if (r >= rows_) throw std::out_of_range("Matrix::set_row: index out of range");
  if (values.size() != cols_) throw std::invalid_argument("Matrix::set_row: width mismatch");
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out(rows_, other.cols_);
  // A fresh Matrix is zero-filled, so accumulating over every row is exactly
  // the historical matmul — one shared kernel keeps the bit patterns aligned.
  matmul_rows_accumulate(other, out, 0, rows_);
  return out;
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);  // vector never shrinks capacity on resize
}

void Matrix::matmul_rows_into(const Matrix& other, Matrix& out, std::size_t row_begin,
                              std::size_t row_end) const {
  std::fill(out.data_.begin() + static_cast<std::ptrdiff_t>(row_begin * out.cols_),
            out.data_.begin() + static_cast<std::ptrdiff_t>(row_end * out.cols_), 0.0);
  matmul_rows_accumulate(other, out, row_begin, row_end);
}

void Matrix::matmul_rows_accumulate(const Matrix& other, Matrix& out, std::size_t row_begin,
                                    std::size_t row_end) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::matmul: inner dimension mismatch (" +
                                std::to_string(cols_) + " vs " + std::to_string(other.rows_) +
                                ")");
  if (out.rows_ != rows_ || out.cols_ != other.cols_)
    throw std::invalid_argument("Matrix::matmul: output shape mismatch");
  if (row_end > rows_ || row_begin > row_end)
    throw std::out_of_range("Matrix::matmul: row range out of range");
#ifndef NDEBUG
  debug_check_finite("matmul left operand");
  other.debug_check_finite("matmul right operand");
#endif
  // Degenerate shapes never dereference operand storage (an all-zero A row
  // could otherwise still form &other.data_[0] on an empty vector).
  if (row_begin == row_end || cols_ == 0 || other.cols_ == 0) return;
  gemm_rows_accumulate(data_.data(), other.data_.data(), out.data_.data(), row_begin, row_end,
                       cols_, other.cols_);
}

void Matrix::gemm_rows_accumulate(const double* a, const double* b, double* out,
                                  std::size_t row_begin, std::size_t row_end, std::size_t k_dim,
                                  std::size_t p) {
  // The per-element contract, shared with the i-k-j reference loop the
  // test-only oracle keeps (tests/oracle/reference_gemm.hpp): out(i,j)
  // accumulates its products in ascending-k order, in place, with the
  // `a == 0.0` left-operand skip. That skip is load-bearing twice over: it
  // is the perf win on sparse (post-ReLU / zero-padded im2col) left
  // operands, and the convolution relies on it matching the naive
  // reference's `v != 0.0` / `g == 0.0` skips term-for-term. It silently
  // drops 0*inf = NaN, hence the finite-input contract asserted by
  // matmul_rows_accumulate in debug builds.
  if (p == 1) {
    // Single-column fast path (e.g. the transposed-conv GEMM of a 1-channel
    // input layer): each out(i,0) still accumulates ascending-k with the same
    // zero-skip, so the bit pattern is unchanged — a register accumulator just
    // removes the per-term store/reload that dominates when the j loop is
    // one iteration long.
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const double* arow = &a[i * k_dim];
      double acc = out[i];
      for (std::size_t k = 0; k < k_dim; ++k) {
        const double av = arow[k];
        if (av == 0.0) continue;
        acc += av * b[k];
      }
      out[i] = acc;
    }
    return;
  }
  // Cache-blocked kernel (nn/gemm_tiled.hpp): (j, k) panels with row-quad
  // register blocking, order-preserving by construction — every out(i,j)
  // receives the same ascending-k add sequence as the reference loop, so
  // the bits are identical (tests/test_gemm_tiled.cpp).
  g_tiled_rows(a, b, out, row_begin, row_end, k_dim, p);
}

void Matrix::debug_check_finite(const char* what) const {
  for (double v : data_) {
    if (!std::isfinite(v))
      throw std::domain_error(std::string("Matrix: non-finite value in ") + what +
                              " violates the finite-input contract");
  }
}

void Matrix::check_same_shape(const Matrix& other, const char* op) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument(std::string("Matrix::") + op + ": shape mismatch");
}

Matrix& Matrix::operator+=(const Matrix& other) {
  check_same_shape(other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  check_same_shape(other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  check_same_shape(other, "hadamard");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * other.data_[i];
  return out;
}

Matrix Matrix::map(const std::function<double(double)>& f) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = f(data_[i]);
  return out;
}

void Matrix::add_row_broadcast(const Matrix& row_vec) {
  if (row_vec.rows_ != 1 || row_vec.cols_ != cols_)
    throw std::invalid_argument("Matrix::add_row_broadcast: expected 1 x cols vector");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += row_vec.data_[c];
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += data_[r * cols_ + c];
  return out;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

double Matrix::squared_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

}  // namespace crowdlearn::nn
