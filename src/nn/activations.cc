#include "nn/activations.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"

namespace tasfar {

namespace {

// The (Leaky)ReLU loops write a fresh workspace output, which aliases
// neither input; the restrict-qualified parameters say so and spare the
// vectorized loops their run-time overlap checks. Each loop loads both
// arms of its select before choosing, so GCC if-converts it into
// compare-and-blend vector code instead of a data-dependent branch per
// element. Each select tests the same comparison as the plain ternary it
// replaces, so NaN (every compare false), -0.0 (not > 0, but <= 0) and
// ±inf give the same bytes.

void ReluForwardLoop(const double* __restrict x, size_t n,
                     double* __restrict y) {
  for (size_t i = 0; i < n; ++i) {
    const double v = x[i];
    y[i] = v > 0.0 ? v : 0.0;
  }
}

void ReluBackwardLoop(const double* __restrict in,
                      const double* __restrict go, size_t n,
                      double* __restrict g) {
  for (size_t i = 0; i < n; ++i) {
    const double pass = go[i];
    g[i] = in[i] <= 0.0 ? 0.0 : pass;
  }
}

// The leaky arms hold a multiply, which GCC will not evaluate
// speculatively inside one loop (under the default -ftrapping-math it may
// trap), so it would keep the branch. A first pass therefore writes the
// leaky arm for every element and a second pass selects; both vectorize.

void LeakyReluForwardLoop(const double* __restrict x, size_t n, double s,
                          double* __restrict y) {
  for (size_t i = 0; i < n; ++i) y[i] = s * x[i];
  for (size_t i = 0; i < n; ++i) {
    const double v = x[i];
    const double leak = y[i];
    y[i] = v > 0.0 ? v : leak;
  }
}

void LeakyReluBackwardLoop(const double* __restrict in,
                           const double* __restrict go, size_t n, double s,
                           double* __restrict g) {
  for (size_t i = 0; i < n; ++i) g[i] = go[i] * s;
  for (size_t i = 0; i < n; ++i) {
    const double pass = go[i];
    const double leak = g[i];
    g[i] = in[i] <= 0.0 ? leak : pass;
  }
}

}  // namespace

Tensor Relu::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ReluForwardLoop(input.data(), out.size(), out.data());
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  ReluBackwardLoop(std::as_const(cached_input_).data(), grad_output.data(),
                   grad.size(), grad.data());
  return grad;
}

void Relu::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                      bool /*training*/) {
  TASFAR_CHECK(out != nullptr && out != &in);
  out->Resize(in.rows(), in.cols());
  simd::Kernels().relu(in.data(), out->data(), in.size());
}

LeakyRelu::LeakyRelu(double negative_slope)
    : negative_slope_(negative_slope) {
  TASFAR_CHECK(negative_slope >= 0.0);
}

Tensor LeakyRelu::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  LeakyReluForwardLoop(input.data(), out.size(), negative_slope_, out.data());
  return out;
}

Tensor LeakyRelu::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  LeakyReluBackwardLoop(std::as_const(cached_input_).data(),
                        grad_output.data(), grad.size(), negative_slope_,
                        grad.data());
  return grad;
}

std::string LeakyRelu::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "LeakyRelu(%.3g)", negative_slope_);
  return buf;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input, [](double x) { return std::tanh(x); }, &out);
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_output_ = out;
  return out;
}

void Tanh::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                      bool /*training*/) {
  TASFAR_CHECK(out != nullptr && out != &in);
  out->Resize(in.rows(), in.cols());
  simd::Kernels().tanh(in.data(), out->data(), in.size());
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* y = cached_output_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = go[i] * (1.0 - y[i] * y[i]);
  }
  return grad;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input,
            [](double x) {
              // Numerically stable logistic.
              if (x >= 0.0) {
                const double z = std::exp(-x);
                return 1.0 / (1.0 + z);
              }
              const double z = std::exp(x);
              return z / (1.0 + z);
            },
            &out);
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_output_ = out;
  return out;
}

void Sigmoid::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                         bool /*training*/) {
  TASFAR_CHECK(out != nullptr && out != &in);
  out->Resize(in.rows(), in.cols());
  // The f32 kernel is the single-branch 1/(1+exp(-x)) form: expf
  // saturates to +inf (→ 0) or 0 (→ 1) instead of going NaN, so the
  // stability branch of the double path is unnecessary in float.
  simd::Kernels().sigmoid(in.data(), out->data(), in.size());
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* y = cached_output_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = go[i] * (y[i] * (1.0 - y[i]));
  }
  return grad;
}

}  // namespace tasfar
