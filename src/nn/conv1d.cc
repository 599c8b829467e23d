#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "nn/conv_taps.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

Conv1d::Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng* rng, size_t stride, size_t padding, size_t dilation)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      dilation_(dilation),
      weight_({out_channels, in_channels, kernel_size}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel_size}),
      grad_bias_({out_channels}) {
  TASFAR_CHECK(in_channels > 0 && out_channels > 0 && kernel_size > 0);
  TASFAR_CHECK(stride > 0 && dilation > 0);
  TASFAR_CHECK(rng != nullptr);
  const double fan_in =
      static_cast<double>(in_channels) * static_cast<double>(kernel_size);
  const double limit = std::sqrt(6.0 / fan_in);
  weight_ = Tensor::RandomUniform({out_channels, in_channels, kernel_size},
                                  rng, -limit, limit);
}

size_t Conv1d::OutputLength(size_t t) const {
  const size_t effective = dilation_ * (kernel_size_ - 1) + 1;
  TASFAR_CHECK_MSG(t + 2 * padding_ >= effective,
                   "Conv1d input shorter than effective kernel");
  return (t + 2 * padding_ - effective) / stride_ + 1;
}

// Direct convolution on raw pointers. Both passes keep the per-element
// floating-point summation order of the naive one-multiply-add-per-tap
// loop nest, so results are byte-identical to it (the reference in
// tests/nn/conv_property_test.cc):
//   * out[b, oc, to] starts from bias[oc] and adds its in-range taps in
//     (ic, k) order;
//   * grad_weight[oc, ic, k] and grad_bias[oc] accumulate in (b, to) order,
//     skipping zero upstream gradients;
//   * grad_input[b, ic, ti] receives its contributions oc-major, then in
//     ascending `to`.
// Backward works channel-last so that its inner loop is contiguous: per
// sample it transposes x[b] to {t_in, in_ch} and accumulates grad_input in
// a {t_in, in_ch} scratch, and it keeps weight and grad_weight as
// {out_ch, k, in_ch}. Only the memory layout changes. The loops still run
// b -> oc -> to -> k -> ic, and every element lies on its own address, so
// each one receives the same products in the same order as in the naive
// nest. With dilation 1 the in-range taps of one output position are
// adjacent rows of every scratch, so the k and ic loops fuse into one run
// of (hi - lo) * in_ch elements.
// Parameters and the cached input are read through const views, so
// buffers shared with Clone()d replicas are never detached (docs/MEMORY.md).
Tensor Conv1d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 3 && input.dim(1) == in_channels_,
                   "Conv1d expects a {batch, in_channels, time} input");
  cached_input_ = input;
  const size_t batch = input.dim(0);
  const size_t t_in = input.dim(2);
  const size_t t_out = OutputLength(t_in);
  // Every element is assigned below, so the uninitialized workspace tensor
  // is safe.
  Tensor out =
      Workspace::ThreadLocal().NewTensor({batch, out_channels_, t_out});
  const double* x = input.data();
  const double* w = std::as_const(weight_).data();
  const double* bias = std::as_const(bias_).data();
  double* y = out.data();
  for (size_t b = 0; b < batch; ++b) {
    double* y_b = y + b * out_channels_ * t_out;
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      std::fill_n(y_b + oc * t_out, t_out, bias[oc]);
    }
    // Taps are added in (ic, k) order to every output row of sample b.
    for (size_t ic = 0; ic < in_channels_; ++ic) {
      const double* x_row = x + (b * in_channels_ + ic) * t_in;
      for (size_t k = 0; k < kernel_size_; ++k) {
        const long shift = static_cast<long>(k * dilation_) -
                           static_cast<long>(padding_);
        const detail::IndexRange steps =
            detail::InBoundsRange(shift, stride_, t_in, t_out);
        if (steps.lo == steps.hi) continue;
        // First in-range input sample; `to` advances it by stride_.
        const double* x_tap = x_row + static_cast<size_t>(
            static_cast<long>(steps.lo * stride_) + shift);
        for (size_t oc = 0; oc < out_channels_; ++oc) {
          const double wv = w[(oc * in_channels_ + ic) * kernel_size_ + k];
          double* y_row = y_b + oc * t_out;
          for (size_t to = steps.lo; to < steps.hi; ++to) {
            y_row[to] += wv * x_tap[(to - steps.lo) * stride_];
          }
        }
      }
    }
  }
  return out;
}

namespace {

/// dst[c * rows + r] = src[r * cols + c]: a {rows, cols} block to
/// {cols, rows}.
void Transpose(const double* __restrict src, size_t rows, size_t cols,
               double* __restrict dst) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

/// gw[j] += go * x[j] and gx[j] += go * w[j] over one contiguous run. The
/// four runs lie in four distinct scratch buffers; saying so through
/// restrict-qualified parameters spares the vectorized loop its run-time
/// overlap checks.
inline void AccumulateTapRun(size_t n, double go, const double* __restrict x,
                             const double* __restrict w,
                             double* __restrict gw, double* __restrict gx) {
  for (size_t j = 0; j < n; ++j) {
    gw[j] += go * x[j];
    gx[j] += go * w[j];
  }
}

/// {out_ch, in_ch, k} <-> {out_ch, k, in_ch}: one Transpose per filter.
void TransposeFilters(const double* src, size_t out_ch, size_t rows,
                      size_t cols, double* dst) {
  const size_t filter = rows * cols;
  for (size_t oc = 0; oc < out_ch; ++oc) {
    Transpose(src + oc * filter, rows, cols, dst + oc * filter);
  }
}

}  // namespace

Tensor Conv1d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const size_t batch = cached_input_.dim(0);
  const size_t t_in = cached_input_.dim(2);
  const size_t t_out = OutputLength(t_in);
  TASFAR_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch &&
               grad_output.dim(1) == out_channels_ &&
               grad_output.dim(2) == t_out);
  const size_t in_ch = in_channels_;
  const size_t kernel = kernel_size_;
  const size_t dilation = dilation_;
  const size_t filter = in_ch * kernel;
  // The in-range taps of each output position, the same for every (b, oc).
  taps_.resize(t_out);
  for (size_t to = 0; to < t_out; ++to) {
    const long start =
        static_cast<long>(to * stride_) - static_cast<long>(padding_);
    taps_[to] = detail::InBoundsRange(start, dilation, t_in, kernel);
  }

  Workspace& ws = Workspace::ThreadLocal();
  // Every element is assigned by the per-sample transpose at the end of
  // the b loop, so the uninitialized workspace tensor is safe.
  Tensor grad_input = ws.NewTensor(cached_input_.shape());
  Tensor x_tr = ws.NewTensor({t_in, in_ch});
  Tensor gx_tr = ws.NewTensor({t_in, in_ch});
  Tensor w_tr = ws.NewTensor({out_channels_, kernel, in_ch});
  Tensor gw_tr = ws.NewTensor({out_channels_, kernel, in_ch});
  const double* x = std::as_const(cached_input_).data();
  const double* g = grad_output.data();
  double* gx = grad_input.data();
  double* gw = grad_weight_.data();
  double* gb = grad_bias_.data();
  double* xt = x_tr.data();
  double* gxt = gx_tr.data();
  double* wt = w_tr.data();
  double* gwt = gw_tr.data();
  TransposeFilters(std::as_const(weight_).data(), out_channels_, in_ch,
                   kernel, wt);
  // Accumulation continues from grad_weight_'s prior values.
  TransposeFilters(gw, out_channels_, in_ch, kernel, gwt);
  for (size_t b = 0; b < batch; ++b) {
    Transpose(x + b * in_ch * t_in, in_ch, t_in, xt);
    std::fill_n(gxt, t_in * in_ch, 0.0);
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      const double* g_row = g + (b * out_channels_ + oc) * t_out;
      const double* w_oc = wt + oc * filter;
      double* gw_oc = gwt + oc * filter;
      // `to` stays outside `k`: for a fixed input sample, contributions
      // must arrive in ascending `to`, and looping k outside would reverse
      // them.
      for (size_t to = 0; to < t_out; ++to) {
        const double go = g_row[to];
        if (go == 0.0) continue;
        gb[oc] += go;
        const detail::IndexRange taps = taps_[to];
        if (taps.lo == taps.hi) continue;
        // Input sample of the first in-range tap.
        const size_t t0 = to * stride_ + taps.lo * dilation - padding_;
        if (dilation == 1) {
          AccumulateTapRun((taps.hi - taps.lo) * in_ch, go, xt + t0 * in_ch,
                           w_oc + taps.lo * in_ch, gw_oc + taps.lo * in_ch,
                           gxt + t0 * in_ch);
          continue;
        }
        for (size_t k = taps.lo; k < taps.hi; ++k) {
          const size_t ti = t0 + (k - taps.lo) * dilation;
          AccumulateTapRun(in_ch, go, xt + ti * in_ch, w_oc + k * in_ch,
                           gw_oc + k * in_ch, gxt + ti * in_ch);
        }
      }
    }
    Transpose(gxt, t_in, in_ch, gx + b * in_ch * t_in);
  }
  TransposeFilters(gwt, out_channels_, kernel, in_ch, gw);
  return grad_input;
}

std::unique_ptr<Layer> Conv1d::Clone() const {
  auto copy = std::make_unique<Conv1d>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Conv1d::Name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Conv1d(%zu->%zu,k=%zu,s=%zu,p=%zu,d=%zu)",
                in_channels_, out_channels_, kernel_size_, stride_, padding_,
                dilation_);
  return buf;
}

}  // namespace tasfar
