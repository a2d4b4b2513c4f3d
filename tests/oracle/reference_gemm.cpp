#include "oracle/reference_gemm.hpp"

#include <algorithm>
#include <stdexcept>

namespace crowdlearn::nn::oracle {

namespace {

/// Rows [row_begin, row_end) of out (m x p) += a (m x k_dim) * b (k_dim x p),
/// all row-major and contiguous.
void reference_gemm_rows_accumulate(const double* a, const double* b, double* out,
                                    std::size_t row_begin, std::size_t row_end,
                                    std::size_t k_dim, std::size_t p) {
  // Historical i-k-j loop: stride-1 over both operands, but for every
  // output row it re-streams all of B — the L2 miss bill that motivates
  // the tiled kernel.
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double av = a[i * k_dim + k];
      if (av == 0.0) continue;
      const double* brow = &b[k * p];
      double* orow = &out[i * p];
      for (std::size_t j = 0; j < p; ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace

void reference_matmul_rows_accumulate(const Matrix& a, const Matrix& b, Matrix& out,
                                      std::size_t row_begin, std::size_t row_end) {
  if (a.cols() != b.rows() || out.rows() != a.rows() || out.cols() != b.cols())
    throw std::invalid_argument("reference_matmul: shape mismatch");
  if (row_end > a.rows() || row_begin > row_end)
    throw std::out_of_range("reference_matmul: row range out of range");
  if (row_begin == row_end || a.cols() == 0 || b.cols() == 0) return;
  reference_gemm_rows_accumulate(a.data().data(), b.data().data(), out.data().data(), row_begin,
                                 row_end, a.cols(), b.cols());
}

void reference_matmul_rows_into(const Matrix& a, const Matrix& b, Matrix& out,
                                std::size_t row_begin, std::size_t row_end) {
  std::fill(out.data().begin() + static_cast<std::ptrdiff_t>(row_begin * out.cols()),
            out.data().begin() + static_cast<std::ptrdiff_t>(row_end * out.cols()), 0.0);
  reference_matmul_rows_accumulate(a, b, out, row_begin, row_end);
}

Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  reference_matmul_rows_accumulate(a, b, out, 0, a.rows());
  return out;
}

}  // namespace crowdlearn::nn::oracle
