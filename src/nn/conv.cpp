#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::nn {

namespace {

/// Static-chunk [0, n) over the pool (serial when null/single-threaded).
/// Every chunked loop below writes disjoint preallocated slots and keeps
/// each accumulator's term order independent of the partition, so the bits
/// match the serial path at any thread count (PR 1's pool contract).
template <typename ChunkFn>
void run_chunks(util::ThreadPool* pool, std::size_t n, std::size_t min_grain, ChunkFn&& fn) {
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_chunks_grained(n, min_grain, fn);
  } else if (n > 0) {
    fn(std::size_t{0}, n);
  }
}

}  // namespace

Conv2D::Conv2D(Shape3 input_shape, std::size_t out_channels, std::size_t kernel, Rng& rng)
    : in_shape_(input_shape),
      out_shape_{out_channels, input_shape.height, input_shape.width},
      k_(kernel),
      pad_((kernel - 1) / 2),
      w_(out_channels, input_shape.channels * kernel * kernel),
      b_(1, out_channels),
      dw_(out_channels, input_shape.channels * kernel * kernel),
      db_(1, out_channels) {
  if (kernel % 2 == 0 || kernel == 0)
    throw std::invalid_argument("Conv2D: kernel must be odd and > 0");
  if (input_shape.size() == 0 || out_channels == 0)
    throw std::invalid_argument("Conv2D: zero-sized shape");
  const double fan_in = static_cast<double>(input_shape.channels * kernel * kernel);
  const double limit = std::sqrt(6.0 / fan_in);
  for (std::size_t r = 0; r < w_.rows(); ++r)
    for (std::size_t c = 0; c < w_.cols(); ++c) w_(r, c) = rng.uniform(-limit, limit);
}

Conv2D::Conv2D(const Conv2D& o)
    : in_shape_(o.in_shape_),
      out_shape_(o.out_shape_),
      k_(o.k_),
      pad_(o.pad_),
      w_(o.w_),
      b_(o.b_),
      dw_(o.dw_),
      db_(o.db_) {}

Conv2D::~Conv2D() = default;

void Conv2D::bind_workspace(Workspace* ws, std::size_t layer_id) {
  ws_ = ws;
  layer_id_ = layer_id;
  own_ws_.reset();
  have_fwd_state_ = false;  // any retained im2col scratch lived elsewhere
}

Workspace& Conv2D::scratch() {
  if (ws_ != nullptr) return *ws_;
  if (!own_ws_) own_ws_ = std::make_unique<Workspace>();
  return *own_ws_;
}

Matrix Conv2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Conv2D::forward_into(const Matrix& input, Matrix& out, bool training) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("Conv2D::forward: input width mismatch");
#ifndef NDEBUG
  // The GEMM's zero-skip drops 0*inf = NaN terms, which is only sound when
  // inputs and parameters are finite (see docs/PERFORMANCE.md and
  // tests/test_nn_kernels.cpp, which pin these semantics).
  input.debug_check_finite("Conv2D input");
  w_.debug_check_finite("Conv2D weights");
  b_.debug_check_finite("Conv2D bias");
#endif
  Workspace& ws = scratch();
  util::ThreadPool* pool = ws.pool();
  const std::size_t batch = input.rows();
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t ckk = w_.cols();
  const std::size_t oc_n = out_shape_.channels;

  Matrix& cols = ws.buffer(layer_id_, 0, batch * hw, ckk);
  Matrix& wt = ws.buffer(layer_id_, 1, ckk, oc_n);
  Matrix& om = ws.buffer(layer_id_, 2, batch * hw, oc_n);

  run_chunks(pool, batch, /*min_grain=*/1, [&](std::size_t sb, std::size_t se) {
    kernels::im2col_rows(input, in_shape_, k_, pad_, cols, sb, se);
  });
  kernels::transpose_weights(w_, wt);
  // Per output element this accumulates bias + ascending-(ic,ky,kx) products
  // with the `a == 0.0` skip on the im2col value — exactly the term sequence
  // (and skip set: padding and in-bounds zeros alike) of the naive reference
  // loop, so the doubles are byte-identical. Rows are independent, hence
  // chunkable.
  run_chunks(pool, batch * hw, /*min_grain=*/32, [&](std::size_t rb, std::size_t re) {
    kernels::fill_bias_rows(b_, om, rb, re);
    cols.matmul_rows_accumulate(wt, om, rb, re);
  });
  out.reshape(batch, out_shape_.size());
  cached_output_.reshape(batch, out_shape_.size());  // Grad-CAM reads this even at inference
  run_chunks(pool, batch, /*min_grain=*/1, [&](std::size_t sb, std::size_t se) {
    kernels::scatter_channel_major(om, out, oc_n, hw, sb, se);
    std::copy(out.data().begin() + static_cast<std::ptrdiff_t>(sb * out.cols()),
              out.data().begin() + static_cast<std::ptrdiff_t>(se * out.cols()),
              cached_output_.data().begin() + static_cast<std::ptrdiff_t>(sb * out.cols()));
  });

  // Training retains the im2col buffer (slot 0) — it is exactly the cached
  // input the weight gradient needs, so no separate input copy is kept.
  have_fwd_state_ = training;
  fwd_batch_ = batch;
}

Matrix Conv2D::backward(const Matrix& grad_output) {
  Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void Conv2D::accumulate_param_grads(const Matrix& grad_output) {
  if (!have_fwd_state_)
    throw std::logic_error("Conv2D::backward before forward (training pass required)");
  if (grad_output.rows() != fwd_batch_ || grad_output.cols() != out_shape_.size())
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
  Workspace& ws = scratch();
  const std::size_t batch = fwd_batch_;
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t ckk = w_.cols();
  const Matrix& cols = ws.buffer(layer_id_, 0, batch * hw, ckk);  // retained from forward

  // Weight gradient through the tiled GEMM: sample s's slice of grad_output
  // is a row-major (out_c x H*W) matrix G_s and its rows of the im2col
  // buffer are (H*W x C*k*k), so dW += G_s * Xcol_s for s ascending. Per
  // dW element that is the naive (sample, position) ascending order, and the
  // GEMM's `a == 0.0` skip is the naive `grad == 0.0` skip. The GEMM also
  // adds grad * 0.0 for padding columns, which the naive loop never
  // touches: that is bit-neutral only because dW never holds -0.0 on entry
  // (Optimizer::step and Grad-CAM zero it with fill(0.0), and a
  // round-to-nearest sum seeded with +0.0 never becomes -0.0). Output
  // channels own disjoint dW rows and db slots, so chunking over them keeps
  // every accumulator's term sequence.
  run_chunks(ws.pool(), out_shape_.channels, /*min_grain=*/1,
             [&](std::size_t ob, std::size_t oe) {
               for (std::size_t s = 0; s < batch; ++s)
                 Matrix::gemm_rows_accumulate(&grad_output.data()[s * grad_output.cols()],
                                              &cols.data()[s * hw * ckk], dw_.data().data(),
                                              ob, oe, hw, ckk);
               kernels::conv2d_bias_grad(grad_output, hw, db_, ob, oe);
             });
}

void Conv2D::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  accumulate_param_grads(grad_output);
  Workspace& ws = scratch();
  util::ThreadPool* pool = ws.pool();
  const std::size_t batch = fwd_batch_;
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t ic_n = in_shape_.channels;
  const std::size_t oc_n = out_shape_.channels;
  const std::size_t k2 = k_ * k_;
  const kernels::ConvGeometry g = geometry();

  grad_input.reshape(batch, in_shape_.size());

  // Input gradient: both routes below produce byte-identical doubles — per
  // target element the terms arrive (oc, source y, source x) ascending with
  // the same zero-grad skip set — so the choice is pure performance. Training
  // gradients behind a ReLU/MaxPool are mostly zeros, where the scatter
  // kernel's `grad == 0.0` skip beats materializing the gradient im2col
  // panel; dense gradients amortize better through the GEMM. The density is
  // a pure function of the data, so the route (and the bits) never depend on
  // thread count.
  std::size_t nonzero = 0;
  for (double v : grad_output.data()) nonzero += (v != 0.0) ? 1 : 0;
  const bool sparse = nonzero * 4 < grad_output.data().size();  // < 25 % nonzero
  if (sparse) {
    run_chunks(pool, batch, /*min_grain=*/1, [&](std::size_t sb, std::size_t se) {
      std::fill(grad_input.data().begin() + static_cast<std::ptrdiff_t>(sb * grad_input.cols()),
                grad_input.data().begin() + static_cast<std::ptrdiff_t>(se * grad_input.cols()),
                0.0);
      kernels::conv2d_grad_input_scatter(g, w_, grad_output, grad_input, sb, se);
    });
    return;
  }

  // Dense route — a transposed convolution: im2col the *gradient* over the
  // output geometry, multiply by the flipped-kernel weight layout. The GEMM
  // reduction ascends (oc, ky, kx) = (oc, source y, source x), and the
  // `a == 0.0` skip covers both the naive `g == 0.0` skip and its bounds
  // `continue`.
  Matrix& gcols = ws.buffer(layer_id_, 3, batch * hw, oc_n * k2);
  Matrix& w2 = ws.buffer(layer_id_, 4, oc_n * k2, ic_n);
  Matrix& gim = ws.buffer(layer_id_, 5, batch * hw, ic_n);
  run_chunks(pool, batch, /*min_grain=*/1, [&](std::size_t sb, std::size_t se) {
    kernels::im2col_rows(grad_output, out_shape_, k_, pad_, gcols, sb, se);
  });
  kernels::flipped_weights(g, w_, w2);
  run_chunks(pool, batch * hw, /*min_grain=*/32, [&](std::size_t rb, std::size_t re) {
    gcols.matmul_rows_into(w2, gim, rb, re);
  });
  run_chunks(pool, batch, /*min_grain=*/1, [&](std::size_t sb, std::size_t se) {
    kernels::scatter_channel_major(gim, grad_input, ic_n, hw, sb, se);
  });
}

std::vector<Param> Conv2D::params() {
  return {{&w_, &dw_, "Conv2D.W"}, {&b_, &db_, "Conv2D.b"}};
}

Tensor3 Conv2D::last_activation(std::size_t sample) const {
  if (cached_output_.empty() || sample >= cached_output_.rows())
    throw std::logic_error("Conv2D::last_activation: no cached forward pass for sample");
  return Tensor3(out_shape_, cached_output_.row(sample));
}

MaxPool2D::MaxPool2D(Shape3 input_shape)
    : in_shape_(input_shape),
      out_shape_{input_shape.channels, input_shape.height / 2, input_shape.width / 2} {
  if (input_shape.height % 2 != 0 || input_shape.width % 2 != 0)
    throw std::invalid_argument("MaxPool2D: spatial dimensions must be even");
  if (out_shape_.size() == 0) throw std::invalid_argument("MaxPool2D: degenerate shape");
}

Matrix MaxPool2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void MaxPool2D::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("MaxPool2D::forward: input width mismatch");
  const std::size_t batch = input.rows();
  const std::size_t out_size = out_shape_.size();
  out.reshape(batch, out_size);
  argmax_.resize(batch * out_size);  // capacity reused; every entry rewritten
  argmax_batch_ = batch;

  const std::size_t in_w = in_shape_.width;
  const std::size_t in_hw = in_shape_.height * in_w;
  const std::size_t out_hw = out_shape_.height * out_shape_.width;
  util::ThreadPool* pool = ws_ != nullptr ? ws_->pool() : nullptr;
  run_chunks(pool, batch, elementwise_row_grain(input.cols()), [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const double* irow = &input.data()[s * input.cols()];
      double* orow = &out.data()[s * out_size];
      std::size_t* arow = &argmax_[s * out_size];
      for (std::size_t c = 0; c < out_shape_.channels; ++c) {
        for (std::size_t y = 0; y < out_shape_.height; ++y) {
          for (std::size_t x = 0; x < out_shape_.width; ++x) {
            // Window scan in (dy, dx) order with a strict `>`: ties keep
            // the first position, exactly as the indexed loop did. Selects
            // instead of branches: the winner is data-dependent.
            double best = -std::numeric_limits<double>::infinity();
            std::size_t best_flat = 0;
            for (std::size_t dy = 0; dy < 2; ++dy) {
              for (std::size_t dx = 0; dx < 2; ++dx) {
                const std::size_t flat = c * in_hw + (2 * y + dy) * in_w + 2 * x + dx;
                const double v = irow[flat];
                const bool take = v > best;
                best = take ? v : best;
                best_flat = take ? flat : best_flat;
              }
            }
            const std::size_t out_flat = c * out_hw + y * out_shape_.width + x;
            orow[out_flat] = best;
            arow[out_flat] = best_flat;
          }
        }
      }
    }
  });
}

Matrix MaxPool2D::backward(const Matrix& grad_output) {
  Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void MaxPool2D::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  if (argmax_batch_ == 0) throw std::logic_error("MaxPool2D::backward before forward");
  const std::size_t batch = grad_output.rows();
  const std::size_t out_size = out_shape_.size();
  if (batch != argmax_batch_ || grad_output.cols() != out_size)
    throw std::invalid_argument("MaxPool2D::backward: grad shape mismatch");
  const std::size_t in_size = in_shape_.size();
  grad_input.reshape(batch, in_size);
  util::ThreadPool* pool = ws_ != nullptr ? ws_->pool() : nullptr;
  run_chunks(pool, batch, elementwise_row_grain(in_size), [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const double* grow = &grad_output.data()[s * out_size];
      const std::size_t* arow = &argmax_[s * out_size];
      double* drow = &grad_input.data()[s * in_size];
      std::fill(drow, drow + in_size, 0.0);
      // `+=` onto the zeroed row, not a plain store: +0.0 + -0.0 is +0.0,
      // so a -0.0 gradient lands as +0.0 just as the indexed accumulation
      // did.
      for (std::size_t o = 0; o < out_size; ++o) drow[arow[o]] += grow[o];
    }
  });
}

GlobalAvgPool::GlobalAvgPool(Shape3 input_shape) : in_shape_(input_shape) {
  if (input_shape.size() == 0) throw std::invalid_argument("GlobalAvgPool: degenerate shape");
}

Matrix GlobalAvgPool::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void GlobalAvgPool::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("GlobalAvgPool::forward: input width mismatch");
  const std::size_t hw = in_shape_.height * in_shape_.width;
  out.reshape(input.rows(), in_shape_.channels);
  for (std::size_t s = 0; s < input.rows(); ++s) {
    for (std::size_t c = 0; c < in_shape_.channels; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < hw; ++i) acc += input(s, c * hw + i);
      out(s, c) = acc / static_cast<double>(hw);
    }
  }
}

Matrix GlobalAvgPool::backward(const Matrix& grad_output) {
  const std::size_t hw = in_shape_.height * in_shape_.width;
  Matrix grad_input(grad_output.rows(), in_shape_.size());
  const double scale = 1.0 / static_cast<double>(hw);
  for (std::size_t s = 0; s < grad_output.rows(); ++s)
    for (std::size_t c = 0; c < in_shape_.channels; ++c)
      for (std::size_t i = 0; i < hw; ++i)
        grad_input(s, c * hw + i) = grad_output(s, c) * scale;
  return grad_input;
}

}  // namespace crowdlearn::nn
