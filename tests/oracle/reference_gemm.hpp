#pragma once
// Reference GEMM: the original i-k-j loop, the readable spec of the
// per-element contract the tiled kernel (nn/gemm_tiled.hpp) preserves —
// out(i,j) receives its products in ascending-k order, in place, with the
// `a == 0.0` left-operand skip. Both produce byte-identical outputs
// (tests/test_gemm_tiled.cpp); BM_GemmReference times it against
// BM_GemmTiled. Test and benchmark code only; the library never links this.

#include <cstddef>

#include "nn/matrix.hpp"

namespace crowdlearn::nn::oracle {

/// The reference counterparts of Matrix::matmul_rows_accumulate,
/// matmul_rows_into and matmul: same shape checks, same degenerate-shape
/// early return, same per-element contract.
void reference_matmul_rows_accumulate(const Matrix& a, const Matrix& b, Matrix& out,
                                      std::size_t row_begin, std::size_t row_end);
void reference_matmul_rows_into(const Matrix& a, const Matrix& b, Matrix& out,
                                std::size_t row_begin, std::size_t row_end);
Matrix reference_matmul(const Matrix& a, const Matrix& b);

}  // namespace crowdlearn::nn::oracle
