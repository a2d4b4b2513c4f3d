#include "nn/conv_kernels.hpp"

#include <algorithm>

namespace crowdlearn::nn::kernels {

void im2col_rows(const Matrix& src, const Shape3& shape, std::size_t k, std::size_t pad,
                 Matrix& cols, std::size_t sample_begin, std::size_t sample_end) {
  const std::size_t H = shape.height, W = shape.width, C = shape.channels;
  const std::size_t hw = H * W;
  const std::size_t ckk = C * k * k;
  for (std::size_t s = sample_begin; s < sample_end; ++s) {
    const double* srow = &src.data()[s * src.cols()];
    double* sample_rows = &cols.data()[s * hw * ckk];
    for (std::size_t y = 0; y < H; ++y) {
      for (std::size_t x = 0; x < W; ++x) {
        double* dst = sample_rows + (y * W + x) * ckk;
        for (std::size_t c = 0; c < C; ++c) {
          const double* chan = srow + c * hw;
          for (std::size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(y + ky) - static_cast<long>(pad);
            if (iy < 0 || iy >= static_cast<long>(H)) {
              for (std::size_t kx = 0; kx < k; ++kx) *dst++ = 0.0;
              continue;
            }
            const double* irow = chan + static_cast<std::size_t>(iy) * W;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(x + kx) - static_cast<long>(pad);
              *dst++ = (ix < 0 || ix >= static_cast<long>(W))
                           ? 0.0
                           : irow[static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
}

void transpose_weights(const Matrix& w, Matrix& wt) {
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const double* wrow = &w.data()[r * w.cols()];
    for (std::size_t c = 0; c < w.cols(); ++c) wt.data()[c * wt.cols() + r] = wrow[c];
  }
}

void flipped_weights(const ConvGeometry& g, const Matrix& w, Matrix& w2) {
  const std::size_t k = g.k;
  for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
    const double* wrow = &w.data()[oc * w.cols()];
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        double* dst = &w2.data()[((oc * k + ky) * k + kx) * w2.cols()];
        const std::size_t src_off = (k - 1 - ky) * k + (k - 1 - kx);
        for (std::size_t ic = 0; ic < g.in.channels; ++ic)
          dst[ic] = wrow[ic * k * k + src_off];
      }
    }
  }
}

void fill_bias_rows(const Matrix& b, Matrix& om, std::size_t row_begin, std::size_t row_end) {
  const std::size_t oc_n = om.cols();
  const double* brow = b.data().data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    double* orow = &om.data()[r * oc_n];
    for (std::size_t c = 0; c < oc_n; ++c) orow[c] = brow[c];
  }
}

void scatter_channel_major(const Matrix& panel, Matrix& dst, std::size_t channels,
                           std::size_t hw, std::size_t sample_begin, std::size_t sample_end) {
  for (std::size_t s = sample_begin; s < sample_end; ++s) {
    double* drow = &dst.data()[s * dst.cols()];
    const double* prow = &panel.data()[s * hw * channels];
    for (std::size_t p = 0; p < hw; ++p)
      for (std::size_t c = 0; c < channels; ++c) drow[c * hw + p] = prow[p * channels + c];
  }
}

void conv2d_bias_grad(const Matrix& grad_output, std::size_t hw, Matrix& db,
                      std::size_t oc_begin, std::size_t oc_end) {
  for (std::size_t oc = oc_begin; oc < oc_end; ++oc) {
    double acc = db.data()[oc];
    for (std::size_t s = 0; s < grad_output.rows(); ++s) {
      const double* grow = &grad_output.data()[s * grad_output.cols() + oc * hw];
      for (std::size_t p = 0; p < hw; ++p)
        if (grow[p] != 0.0) acc += grow[p];
    }
    db.data()[oc] = acc;
  }
}

void conv2d_grad_input_scatter(const ConvGeometry& g, const Matrix& w,
                               const Matrix& grad_output, Matrix& grad_input,
                               std::size_t sample_begin, std::size_t sample_end) {
  const std::size_t H = g.out.height, W = g.out.width;
  const std::size_t k = g.k, pad = g.pad;
  const std::size_t C = g.in.channels;
  const std::size_t in_hw = g.in.height * g.in.width;
  for (std::size_t s = sample_begin; s < sample_end; ++s) {
    const double* gsample = &grad_output.data()[s * grad_output.cols()];
    double* irow = &grad_input.data()[s * grad_input.cols()];
    for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
      const double* grow = gsample + oc * H * W;
      const double* wrow = &w.data()[oc * w.cols()];
      for (std::size_t y = 0; y < H; ++y) {
        const std::size_t ky_lo = pad > y ? pad - y : 0;
        const std::size_t ky_hi = std::min(k, g.in.height + pad - y);  // exclusive
        for (std::size_t x = 0; x < W; ++x) {
          const double grad = grow[y * W + x];
          if (grad == 0.0) continue;
          const std::size_t kx_lo = pad > x ? pad - x : 0;
          const std::size_t kx_hi = std::min(k, g.in.width + pad - x);
          for (std::size_t c = 0; c < C; ++c) {
            double* ichan = irow + c * in_hw;
            for (std::size_t ky = ky_lo; ky < ky_hi; ++ky) {
              const std::size_t iy = y + ky - pad;
              const double* wseg = wrow + (c * k + ky) * k + kx_lo;
              double* idst = ichan + iy * g.in.width + (x + kx_lo - pad);
              for (std::size_t kx = 0; kx < kx_hi - kx_lo; ++kx)
                idst[kx] += grad * wseg[kx];
            }
          }
        }
      }
    }
  }
}

}  // namespace crowdlearn::nn::kernels
