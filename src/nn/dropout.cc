#include "nn/dropout.h"

#include <cstdio>

#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"

namespace tasfar {

Dropout::Dropout(double rate, uint64_t seed)
    : rate_(rate), seed_(seed), rng_(seed) {
  TASFAR_CHECK_MSG(rate >= 0.0 && rate < 1.0, "dropout rate must be in [0,1)");
}

Tensor Dropout::Forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0) return input;
  const double keep = 1.0 - rate_;
  Workspace& ws = Workspace::ThreadLocal();
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  mask_ = ws.NewTensor(input.shape());
  const double scale = 1.0 / keep;
  double* m = mask_.data();
  const size_t n = mask_.size();
  for (size_t i = 0; i < n; ++i) {
    // Branchless select, as in ForwardF32: scale * 1.0 is scale and
    // scale * 0.0 is +0.0 (scale is positive and finite), so the mask is
    // the same as the branching form without a mispredict per dropped
    // element.
    m[i] = scale * static_cast<double>(rng_.Bernoulli(keep));
  }
  Tensor out = ws.NewTensor(input.shape());
  MulInto(input, mask_, &out);
  return out;
}

void Dropout::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                         bool training) {
  TASFAR_CHECK(out != nullptr && out != &in);
  if (!training || rate_ == 0.0) {
    out->CopyFrom(in);
    return;
  }
  const double keep = 1.0 - rate_;
  const float scale = static_cast<float>(1.0 / keep);
  mask_f32_.Resize(in.rows(), in.cols());
  float* m = mask_f32_.data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) {
    // Branchless select: bool -> 0.0f/1.0f is exact, so the mask values
    // are identical to the branching form, without the ~rate-probability
    // mispredict per element.
    m[i] = scale * static_cast<float>(rng_.Bernoulli(keep));
  }
  out->Resize(in.rows(), in.cols());
  simd::Kernels().mul(in.data(), m, out->data(), n);
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  if (!last_training_ || rate_ == 0.0) return grad_output;
  TASFAR_CHECK(grad_output.SameShape(mask_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  MulInto(grad_output, mask_, &grad);
  return grad;
}

void Dropout::ReseedStochastic(uint64_t seed) {
  seed_ = seed;
  rng_ = Rng(seed);
}

std::unique_ptr<Layer> Dropout::Clone() const {
  // The clone restarts its mask stream from the configured seed; dropout
  // masks are not part of the model state.
  return std::make_unique<Dropout>(rate_, seed_);
}

std::string Dropout::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "Dropout(%.2f)", rate_);
  return buf;
}

}  // namespace tasfar
