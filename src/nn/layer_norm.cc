#include "nn/layer_norm.h"

#include <cmath>
#include <cstdio>

#include "tensor/workspace.h"

namespace tasfar {

LayerNorm::LayerNorm(size_t features, double epsilon)
    : features_(features),
      epsilon_(epsilon),
      gain_({features}),
      bias_({features}),
      grad_gain_({features}),
      grad_bias_({features}) {
  TASFAR_CHECK(features > 0);
  TASFAR_CHECK(epsilon > 0.0);
  gain_.Fill(1.0);
}

Tensor LayerNorm::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 2 && input.dim(1) == features_,
                   "LayerNorm expects a {batch, features} input");
  const size_t batch = input.dim(0);
  Workspace& ws = Workspace::ThreadLocal();
  // Both tensors have every element assigned below.
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_normalized_ = ws.NewTensor(input.shape());
  cached_inv_std_.assign(batch, 0.0);
  Tensor out = ws.NewTensor(input.shape());
  // Const views: reads must not detach parameters shared with clones.
  const Tensor& gain = gain_;
  const Tensor& bias = bias_;
  for (size_t i = 0; i < batch; ++i) {
    double mean = 0.0;
    for (size_t j = 0; j < features_; ++j) mean += input.At(i, j);
    mean /= static_cast<double>(features_);
    double var = 0.0;
    for (size_t j = 0; j < features_; ++j) {
      const double d = input.At(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(features_);
    const double inv_std = 1.0 / std::sqrt(var + epsilon_);
    cached_inv_std_[i] = inv_std;
    for (size_t j = 0; j < features_; ++j) {
      const double norm = (input.At(i, j) - mean) * inv_std;
      cached_normalized_.At(i, j) = norm;
      out.At(i, j) = gain[j] * norm + bias[j];
    }
  }
  return out;
}

Tensor LayerNorm::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(cached_normalized_.size() > 0, "Backward before Forward");
  TASFAR_CHECK(grad_output.SameShape(cached_normalized_));
  const size_t batch = grad_output.dim(0);
  const double n = static_cast<double>(features_);
  Tensor grad_input = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const Tensor& gain = gain_;
  const Tensor& normalized = cached_normalized_;
  for (size_t i = 0; i < batch; ++i) {
    // d loss / d x̂ and the two reduction terms of the layer-norm backward.
    double sum_g = 0.0, sum_gx = 0.0;
    for (size_t j = 0; j < features_; ++j) {
      const double g_norm = grad_output.At(i, j) * gain[j];
      sum_g += g_norm;
      sum_gx += g_norm * normalized.At(i, j);
      grad_gain_[j] += grad_output.At(i, j) * normalized.At(i, j);
      grad_bias_[j] += grad_output.At(i, j);
    }
    for (size_t j = 0; j < features_; ++j) {
      const double g_norm = grad_output.At(i, j) * gain[j];
      grad_input.At(i, j) =
          cached_inv_std_[i] *
          (g_norm - sum_g / n - normalized.At(i, j) * sum_gx / n);
    }
  }
  return grad_input;
}

std::unique_ptr<Layer> LayerNorm::Clone() const {
  auto copy = std::make_unique<LayerNorm>(*this);
  copy->cached_normalized_ = Tensor();
  copy->cached_inv_std_.clear();
  return copy;
}

std::string LayerNorm::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "LayerNorm(%zu)", features_);
  return buf;
}

Elu::Elu(double alpha) : alpha_(alpha) { TASFAR_CHECK(alpha > 0.0); }

Tensor Elu::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  const double a = alpha_;
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input,
            [a](double x) { return x > 0.0 ? x : a * (std::exp(x) - 1.0); },
            &out);
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_output_ = out;
  return out;
}

Tensor Elu::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* in = cached_input_.data();
  const double* y = cached_output_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = in[i] <= 0.0 ? go[i] * (y[i] + alpha_)  // α e^x.
                        : go[i];
  }
  return grad;
}

std::string Elu::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "Elu(%.2g)", alpha_);
  return buf;
}

AvgPool2d::AvgPool2d(size_t window) : window_(window) {
  TASFAR_CHECK(window > 0);
}

Tensor AvgPool2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4, "AvgPool2d expects a rank-4 input");
  cached_shape_ = input.shape();
  const size_t batch = input.dim(0), ch = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  TASFAR_CHECK_MSG(h_in >= window_ && w_in >= window_,
                   "AvgPool2d window larger than input");
  const size_t h_out = h_in / window_, w_out = w_in / window_;
  const double inv = 1.0 / static_cast<double>(window_ * window_);
  Tensor out = Workspace::ThreadLocal().NewTensor({batch, ch, h_out, w_out});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < ch; ++c) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          double s = 0.0;
          for (size_t kh = 0; kh < window_; ++kh) {
            for (size_t kw = 0; kw < window_; ++kw) {
              s += input.At(b, c, ho * window_ + kh, wo * window_ + kw);
            }
          }
          out.At(b, c, ho, wo) = s * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(!cached_shape_.empty(), "Backward before Forward");
  // Rows/cols beyond the pooled region receive no gradient and must stay
  // zero, so the buffer is zero-filled.
  Tensor grad_input = Workspace::ThreadLocal().ZeroTensor(cached_shape_);
  const size_t batch = cached_shape_[0], ch = cached_shape_[1];
  const size_t h_out = grad_output.dim(2), w_out = grad_output.dim(3);
  const double inv = 1.0 / static_cast<double>(window_ * window_);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < ch; ++c) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          const double g = grad_output.At(b, c, ho, wo) * inv;
          for (size_t kh = 0; kh < window_; ++kh) {
            for (size_t kw = 0; kw < window_; ++kw) {
              grad_input.At(b, c, ho * window_ + kh, wo * window_ + kw) = g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::string AvgPool2d::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "AvgPool2d(%zu)", window_);
  return buf;
}

}  // namespace tasfar
