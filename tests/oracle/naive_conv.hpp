#pragma once
// Reference convolution: the original 7-deep loops that define the bit
// patterns Conv2D's im2col + GEMM route must reproduce, and the baseline the
// BM_*Naive benchmarks time it against. Test and benchmark code only; the
// library never links this.
//
// Conv2D accumulates the same term sequences with the same skip set (the
// im2col column order is the naive `(ic*k + ky)*k + kx` reduction order, and
// the GEMM's `a == 0.0` skip is the naive `v != 0.0` / `g == 0.0` / bounds
// skip), so both produce byte-identical doubles — tests/test_nn_kernels.cpp.
// One exception is written down in nn/conv_kernels.hpp: the weight-gradient
// GEMM adds grad * 0.0 at padding columns this loop skips, which is
// bit-neutral only while dW never holds -0.0 on entry.

#include <memory>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/conv_kernels.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace crowdlearn::nn::oracle {

/// Reference forward: out(s, (oc,y,x)) = b(0,oc) + sum over (ic,ky,kx) of
/// in-bounds nonzero input * weight, accumulated in ascending (ic,ky,kx)
/// order. `out` must be pre-shaped (batch x out.size()); every entry is
/// written.
void naive_conv2d_forward(const kernels::ConvGeometry& g, const Matrix& w, const Matrix& b,
                          const Matrix& input, Matrix& out);

/// Reference backward. `grad_input` must be pre-shaped (batch x in.size())
/// and is zero-filled here; `dw`/`db` are accumulated into (+=), matching
/// the layer's cross-batch gradient accumulation semantics.
void naive_conv2d_backward(const kernels::ConvGeometry& g, const Matrix& w,
                           const Matrix& cached_input, const Matrix& grad_output,
                           Matrix& grad_input, Matrix& dw, Matrix& db);

/// A Conv2D's weights and bias on the naive kernels. Its gradients start at
/// +0.0; forward(training=true) keeps the input for backward, an inference
/// forward keeps nothing (backward then throws, as Conv2D's does).
class NaiveConv2D : public Layer {
 public:
  explicit NaiveConv2D(const Conv2D& conv);

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  Matrix backward(const Matrix& grad_output) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  std::vector<Param> params() override;

  std::size_t input_size() const override { return g_.in.size(); }
  std::size_t output_size() const override { return g_.out.size(); }
  std::string name() const override { return "NaiveConv2D"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  kernels::ConvGeometry g_;
  Matrix w_, b_;
  Matrix dw_, db_;
  Matrix cached_input_;  // only when training
};

/// Copy of `model` with every Conv2D replaced by a NaiveConv2D over the same
/// weights; every other layer is cloned. Lets a whole Sequential (fit,
/// predict) run on the reference convolution.
Sequential with_naive_convolutions(const Sequential& model);

}  // namespace crowdlearn::nn::oracle
