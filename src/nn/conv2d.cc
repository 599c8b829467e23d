#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "nn/conv_taps.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng* rng, size_t stride, size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel_size, kernel_size}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel_size, kernel_size}),
      grad_bias_({out_channels}) {
  TASFAR_CHECK(in_channels > 0 && out_channels > 0 && kernel_size > 0);
  TASFAR_CHECK(stride > 0);
  TASFAR_CHECK(rng != nullptr);
  const double fan_in = static_cast<double>(in_channels) *
                        static_cast<double>(kernel_size * kernel_size);
  const double limit = std::sqrt(6.0 / fan_in);
  weight_ = Tensor::RandomUniform(
      {out_channels, in_channels, kernel_size, kernel_size}, rng, -limit,
      limit);
}

size_t Conv2d::OutputExtent(size_t n) const {
  TASFAR_CHECK_MSG(n + 2 * padding_ >= kernel_size_,
                   "Conv2d input smaller than kernel");
  return (n + 2 * padding_ - kernel_size_) / stride_ + 1;
}

// Direct convolution on raw pointers, order-preserving like Conv1d's
// (conv1d.cc): out[b, oc, ho, wo] starts from bias[oc] and adds its
// in-range taps in (ic, kh, kw) order; grad_weight and grad_bias accumulate
// in (b, ho, wo) order, skipping zero upstream gradients; grad_input
// receives its contributions oc-major, then in ascending (ho, wo). The
// results are byte-identical to the naive loop nest (the reference in
// tests/nn/conv_property_test.cc). Parameters and the cached input are
// read through const views.
Tensor Conv2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4 && input.dim(1) == in_channels_,
                   "Conv2d expects a {batch, in_channels, h, w} input");
  cached_input_ = input;
  const size_t batch = input.dim(0);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  const size_t h_out = OutputExtent(h_in), w_out = OutputExtent(w_in);
  const size_t plane_in = h_in * w_in, plane_out = h_out * w_out;
  const size_t kk = kernel_size_ * kernel_size_;
  // Every element is assigned below; uninitialized workspace contents are
  // safe.
  Tensor out = Workspace::ThreadLocal().NewTensor(
      {batch, out_channels_, h_out, w_out});
  const double* x = input.data();
  const double* w = std::as_const(weight_).data();
  const double* bias = std::as_const(bias_).data();
  double* y = out.data();
  for (size_t b = 0; b < batch; ++b) {
    double* y_b = y + b * out_channels_ * plane_out;
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      std::fill_n(y_b + oc * plane_out, plane_out, bias[oc]);
    }
    // Taps are added in (ic, kh, kw) order to every output plane of b.
    for (size_t ic = 0; ic < in_channels_; ++ic) {
      const double* x_plane = x + (b * in_channels_ + ic) * plane_in;
      for (size_t kh = 0; kh < kernel_size_; ++kh) {
        const long h_shift =
            static_cast<long>(kh) - static_cast<long>(padding_);
        const detail::IndexRange rows =
            detail::InBoundsRange(h_shift, stride_, h_in, h_out);
        for (size_t kw = 0; kw < kernel_size_; ++kw) {
          const long w_shift =
              static_cast<long>(kw) - static_cast<long>(padding_);
          const detail::IndexRange cols =
              detail::InBoundsRange(w_shift, stride_, w_in, w_out);
          if (rows.lo == rows.hi || cols.lo == cols.hi) continue;
          const size_t wi0 = static_cast<size_t>(
              static_cast<long>(cols.lo * stride_) + w_shift);
          for (size_t oc = 0; oc < out_channels_; ++oc) {
            const double wv =
                w[(oc * in_channels_ + ic) * kk + kh * kernel_size_ + kw];
            double* y_plane = y_b + oc * plane_out;
            for (size_t ho = rows.lo; ho < rows.hi; ++ho) {
              const size_t hi = static_cast<size_t>(
                  static_cast<long>(ho * stride_) + h_shift);
              const double* x_tap = x_plane + hi * w_in + wi0;
              double* y_row = y_plane + ho * w_out;
              for (size_t wo = cols.lo; wo < cols.hi; ++wo) {
                y_row[wo] += wv * x_tap[(wo - cols.lo) * stride_];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const size_t batch = cached_input_.dim(0);
  const size_t h_in = cached_input_.dim(2), w_in = cached_input_.dim(3);
  const size_t h_out = OutputExtent(h_in), w_out = OutputExtent(w_in);
  TASFAR_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
               grad_output.dim(1) == out_channels_ &&
               grad_output.dim(2) == h_out && grad_output.dim(3) == w_out);
  const size_t plane_in = h_in * w_in;
  const size_t kk = kernel_size_ * kernel_size_;
  const size_t filter = in_channels_ * kk;
  // grad_input accumulates (+=), so it must start zeroed.
  Tensor grad_input =
      Workspace::ThreadLocal().ZeroTensor(cached_input_.shape());
  const double* x = std::as_const(cached_input_).data();
  const double* w = std::as_const(weight_).data();
  const double* g = grad_output.data();
  double* gx = grad_input.data();
  double* gw = grad_weight_.data();
  double* gb = grad_bias_.data();
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      const double* g_plane = g + (b * out_channels_ + oc) * h_out * w_out;
      const double* w_oc = w + oc * filter;
      double* gw_oc = gw + oc * filter;
      for (size_t ho = 0; ho < h_out; ++ho) {
        const long h_start = static_cast<long>(ho * stride_) -
                             static_cast<long>(padding_);
        const detail::IndexRange kh_taps =
            detail::InBoundsRange(h_start, 1, h_in, kernel_size_);
        for (size_t wo = 0; wo < w_out; ++wo) {
          const double go = g_plane[ho * w_out + wo];
          if (go == 0.0) continue;
          gb[oc] += go;
          const long w_start = static_cast<long>(wo * stride_) -
                               static_cast<long>(padding_);
          const detail::IndexRange kw_taps =
              detail::InBoundsRange(w_start, 1, w_in, kernel_size_);
          for (size_t ic = 0; ic < in_channels_; ++ic) {
            const size_t plane = (b * in_channels_ + ic) * plane_in;
            for (size_t kh = kh_taps.lo; kh < kh_taps.hi; ++kh) {
              const size_t row =
                  plane + static_cast<size_t>(h_start +
                                              static_cast<long>(kh)) *
                              w_in;
              const size_t tap = ic * kk + kh * kernel_size_;
              for (size_t kw = kw_taps.lo; kw < kw_taps.hi; ++kw) {
                const size_t xi = row + static_cast<size_t>(
                    w_start + static_cast<long>(kw));
                gw_oc[tap + kw] += go * x[xi];
                gx[xi] += go * w_oc[tap + kw];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::make_unique<Conv2d>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Conv2d::Name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Conv2d(%zu->%zu,k=%zu,s=%zu,p=%zu)",
                in_channels_, out_channels_, kernel_size_, stride_, padding_);
  return buf;
}

MaxPool2d::MaxPool2d(size_t window) : window_(window) {
  TASFAR_CHECK(window > 0);
}

Tensor MaxPool2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4, "MaxPool2d expects a rank-4 input");
  cached_input_ = input;
  const size_t batch = input.dim(0), ch = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  TASFAR_CHECK_MSG(h_in >= window_ && w_in >= window_,
                   "MaxPool2d window larger than input");
  const size_t h_out = h_in / window_, w_out = w_in / window_;
  Tensor out = Workspace::ThreadLocal().NewTensor({batch, ch, h_out, w_out});
  argmax_.assign(out.size(), 0);
  size_t flat = 0;
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < ch; ++c) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo, ++flat) {
          double best = -std::numeric_limits<double>::infinity();
          size_t best_idx = 0;
          for (size_t kh = 0; kh < window_; ++kh) {
            for (size_t kw = 0; kw < window_; ++kw) {
              const size_t hi = ho * window_ + kh;
              const size_t wi = wo * window_ + kw;
              const size_t idx = ((b * ch + c) * h_in + hi) * w_in + wi;
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          out.At(b, c, ho, wo) = best;
          argmax_[flat] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  TASFAR_CHECK(grad_output.size() == argmax_.size());
  Tensor grad_input =
      Workspace::ThreadLocal().ZeroTensor(cached_input_.shape());
  for (size_t i = 0; i < argmax_.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

std::string MaxPool2d::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "MaxPool2d(%zu)", window_);
  return buf;
}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() >= 2, "Flatten expects rank >= 2");
  cached_shape_ = input.shape();
  size_t features = 1;
  for (size_t i = 1; i < input.rank(); ++i) features *= input.dim(i);
  return input.Reshape({input.dim(0), features});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(!cached_shape_.empty(), "Backward before Forward");
  return grad_output.Reshape(cached_shape_);
}

Tensor GlobalAvgPool2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4, "GlobalAvgPool2d expects rank-4 input");
  cached_shape_ = input.shape();
  const size_t batch = input.dim(0), ch = input.dim(1);
  const size_t hw = input.dim(2) * input.dim(3);
  Tensor out = Workspace::ThreadLocal().NewTensor({batch, ch});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < ch; ++c) {
      double s = 0.0;
      for (size_t h = 0; h < input.dim(2); ++h) {
        for (size_t w = 0; w < input.dim(3); ++w) s += input.At(b, c, h, w);
      }
      out.At(b, c) = s / static_cast<double>(hw);
    }
  }
  return out;
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(!cached_shape_.empty(), "Backward before Forward");
  // Every element is assigned below.
  Tensor grad_input = Workspace::ThreadLocal().NewTensor(cached_shape_);
  const size_t batch = cached_shape_[0], ch = cached_shape_[1];
  const size_t h = cached_shape_[2], w = cached_shape_[3];
  const double scale = 1.0 / static_cast<double>(h * w);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < ch; ++c) {
      const double g = grad_output.At(b, c) * scale;
      for (size_t hh = 0; hh < h; ++hh) {
        for (size_t ww = 0; ww < w; ++ww) grad_input.At(b, c, hh, ww) = g;
      }
    }
  }
  return grad_input;
}

}  // namespace tasfar
