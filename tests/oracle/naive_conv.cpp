#include "oracle/naive_conv.hpp"

#include <stdexcept>

namespace crowdlearn::nn::oracle {

namespace {

/// Zero-padded element read shared by the naive kernels (the original
/// Conv2D::input_at, hoisted out of the class).
double input_at(const Matrix& batch, const Shape3& shape, std::size_t sample, std::size_t c,
                long y, long x) {
  if (y < 0 || x < 0 || y >= static_cast<long>(shape.height) ||
      x >= static_cast<long>(shape.width))
    return 0.0;  // zero padding
  const std::size_t flat =
      shape.flat(c, static_cast<std::size_t>(y), static_cast<std::size_t>(x));
  return batch(sample, flat);
}

}  // namespace

void naive_conv2d_forward(const kernels::ConvGeometry& g, const Matrix& w, const Matrix& b,
                          const Matrix& input, Matrix& out) {
  const std::size_t batch = input.rows();
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
      for (std::size_t y = 0; y < g.out.height; ++y) {
        for (std::size_t x = 0; x < g.out.width; ++x) {
          double acc = b(0, oc);
          for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const long iy = static_cast<long>(y + ky) - static_cast<long>(g.pad);
                const long ix = static_cast<long>(x + kx) - static_cast<long>(g.pad);
                const double v = input_at(input, g.in, s, ic, iy, ix);
                if (v != 0.0) acc += v * w(oc, (ic * g.k + ky) * g.k + kx);
              }
            }
          }
          out(s, g.out.flat(oc, y, x)) = acc;
        }
      }
    }
  }
}

void naive_conv2d_backward(const kernels::ConvGeometry& g, const Matrix& w,
                           const Matrix& cached_input, const Matrix& grad_output,
                           Matrix& grad_input, Matrix& dw, Matrix& db) {
  const std::size_t batch = cached_input.rows();
  grad_input.fill(0.0);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
      for (std::size_t y = 0; y < g.out.height; ++y) {
        for (std::size_t x = 0; x < g.out.width; ++x) {
          const double grad = grad_output(s, g.out.flat(oc, y, x));
          if (grad == 0.0) continue;
          db(0, oc) += grad;
          for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const long iy = static_cast<long>(y + ky) - static_cast<long>(g.pad);
                const long ix = static_cast<long>(x + kx) - static_cast<long>(g.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<long>(g.in.height) ||
                    ix >= static_cast<long>(g.in.width))
                  continue;
                const std::size_t in_flat = g.in.flat(ic, static_cast<std::size_t>(iy),
                                                      static_cast<std::size_t>(ix));
                const std::size_t w_col = (ic * g.k + ky) * g.k + kx;
                dw(oc, w_col) += grad * cached_input(s, in_flat);
                grad_input(s, in_flat) += grad * w(oc, w_col);
              }
            }
          }
        }
      }
    }
  }
}

NaiveConv2D::NaiveConv2D(const Conv2D& conv)
    : g_{conv.in_shape(), conv.out_shape(), conv.kernel_size(), (conv.kernel_size() - 1) / 2},
      w_(conv.kernels()),
      b_(conv.bias()),
      dw_(w_.rows(), w_.cols()),
      db_(b_.rows(), b_.cols()) {}

Matrix NaiveConv2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void NaiveConv2D::forward_into(const Matrix& input, Matrix& out, bool training) {
  if (input.cols() != g_.in.size())
    throw std::invalid_argument("NaiveConv2D::forward: input width mismatch");
  // The training flag gates the backward state, as it does for Conv2D.
  cached_input_ = training ? input : Matrix();
  out.reshape(input.rows(), g_.out.size());
  naive_conv2d_forward(g_, w_, b_, input, out);
}

Matrix NaiveConv2D::backward(const Matrix& grad_output) {
  Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void NaiveConv2D::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  if (cached_input_.empty()) throw std::logic_error("NaiveConv2D::backward before forward");
  grad_input.reshape(cached_input_.rows(), g_.in.size());  // zero-filled by the kernel
  naive_conv2d_backward(g_, w_, cached_input_, grad_output, grad_input, dw_, db_);
}

std::vector<Param> NaiveConv2D::params() {
  return {{&w_, &dw_, "Conv2D.W"}, {&b_, &db_, "Conv2D.b"}};
}

std::unique_ptr<Layer> NaiveConv2D::clone() const {
  auto copy = std::make_unique<NaiveConv2D>(*this);
  copy->cached_input_ = Matrix();  // clones carry no activation cache
  return copy;
}

Sequential with_naive_convolutions(const Sequential& model) {
  Sequential out;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const Layer& layer = model.layer(i);
    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer))
      out.add(std::make_unique<NaiveConv2D>(*conv));
    else
      out.add(layer.clone());
  }
  return out;
}

}  // namespace crowdlearn::nn::oracle
