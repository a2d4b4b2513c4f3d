#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::nn {

namespace {

/// Static-chunk the row range [0, n) over the workspace pool (serial when
/// unbound or single-threaded). Rows are independent targets, so any chunk
/// partition yields the bits the serial loop would.
template <typename ChunkFn>
void run_row_chunks(Workspace* ws, std::size_t n, std::size_t min_grain, ChunkFn&& fn) {
  util::ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_chunks_grained(n, min_grain, fn);
  } else if (n > 0) {
    fn(std::size_t{0}, n);
  }
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out), dw_(in, out), db_(1, out) {
  if (in == 0 || out == 0) throw std::invalid_argument("Dense: zero dimension");
  // He-uniform initialization: U(-limit, limit), limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t r = 0; r < in; ++r)
    for (std::size_t c = 0; c < out; ++c) w_(r, c) = rng.uniform(-limit, limit);
}

Matrix Dense::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Dense::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_) throw std::invalid_argument("Dense::forward: input width mismatch");
  cached_input_ = input;
  out.reshape(input.rows(), out_);
  // Row-parallel GEMM: each output row's dot products are computed whole on
  // one thread, so the sum order (and therefore every bit) matches the
  // serial input.matmul(w_). Bias is added after, as it always was.
  run_row_chunks(ws_, input.rows(), /*min_grain=*/8,
                 [&](std::size_t begin, std::size_t end) {
                   input.matmul_rows_into(w_, out, begin, end);
                 });
  out.add_row_broadcast(b_);
}

Matrix Dense::backward(const Matrix& grad_output) {
  Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void Dense::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  if (cached_input_.empty()) throw std::logic_error("Dense::backward before forward");
  dw_ += cached_input_.transpose().matmul(grad_output);
  db_ += grad_output.column_sums();
  // matmul_rows_into zero-fills then accumulates: the bits of matmul().
  grad_input.reshape(grad_output.rows(), in_);
  grad_output.matmul_rows_into(w_.transpose(), grad_input, 0, grad_output.rows());
}

std::vector<Param> Dense::params() {
  return {{&w_, &dw_, "Dense.W"}, {&b_, &db_, "Dense.b"}};
}

Matrix ReLU::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void ReLU::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  const std::size_t cols = input.cols();
  cached_input_.reshape(input.rows(), cols);
  out.reshape(input.rows(), cols);
  run_row_chunks(ws_, input.rows(), elementwise_row_grain(cols),
                 [&](std::size_t rb, std::size_t re) {
                   const double* x = &input.data()[rb * cols];
                   double* cache = &cached_input_.data()[rb * cols];
                   double* y = &out.data()[rb * cols];
                   for (std::size_t i = 0; i < (re - rb) * cols; ++i) {
                     cache[i] = x[i];
                     y[i] = x[i] > 0.0 ? x[i] : 0.0;
                   }
                 });
}

Matrix ReLU::backward(const Matrix& grad_output) {
  Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void ReLU::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward before forward");
  if (grad_output.size() != cached_input_.size())
    throw std::invalid_argument("ReLU::backward: grad shape mismatch");
  const std::size_t cols = grad_output.cols();
  grad_input.reshape(grad_output.rows(), cols);
  run_row_chunks(ws_, grad_output.rows(), elementwise_row_grain(cols),
                 [&](std::size_t rb, std::size_t re) {
                   const double* x = &cached_input_.data()[rb * cols];
                   const double* g = &grad_output.data()[rb * cols];
                   double* out = &grad_input.data()[rb * cols];
                   for (std::size_t i = 0; i < (re - rb) * cols; ++i)
                     out[i] = x[i] <= 0.0 ? 0.0 : g[i];
                 });
}

Matrix Tanh::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Tanh::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  out.reshape(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.data().size(); ++i)
    out.data()[i] = std::tanh(input.data()[i]);
  cached_output_ = out;
}

Matrix Tanh::backward(const Matrix& grad_output) {
  if (cached_output_.empty()) throw std::logic_error("Tanh::backward before forward");
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.data().size(); ++i) {
    const double y = cached_output_.data()[i];
    grad.data()[i] *= (1.0 - y * y);
  }
  return grad;
}

Dropout::Dropout(std::size_t size, double rate, Rng& rng)
    : size_(size), rate_(rate), rng_(rng.fork()) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

Matrix Dropout::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Dropout::forward_into(const Matrix& input, Matrix& out, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0) {
    out = input;
    return;
  }
  // mask_ is reshaped (not reallocated) and fully overwritten below, and the
  // RNG draw order per element is unchanged — bit-identical to the original.
  mask_.reshape(input.rows(), input.cols());
  out.reshape(input.rows(), input.cols());
  const double keep = 1.0 - rate_;
  for (std::size_t i = 0; i < input.data().size(); ++i) {
    const bool kept = rng_.bernoulli(keep);
    mask_.data()[i] = kept ? 1.0 / keep : 0.0;
    out.data()[i] = input.data()[i] * mask_.data()[i];
  }
}

Matrix Dropout::backward(const Matrix& grad_output) {
  if (!last_training_ || rate_ == 0.0) return grad_output;
  if (mask_.empty()) throw std::logic_error("Dropout::backward before forward");
  return grad_output.hadamard(mask_);
}

}  // namespace crowdlearn::nn
