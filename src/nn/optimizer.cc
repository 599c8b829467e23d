#include "nn/optimizer.h"

#include <cmath>
#include <limits>

#include "tensor/guard.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tasfar {

namespace {

void CheckBinding(const std::vector<Tensor*>& params,
                  const std::vector<Tensor*>& grads,
                  const std::vector<Tensor>& state) {
  TASFAR_CHECK(params.size() == grads.size());
  for (size_t i = 0; i < params.size(); ++i) {
    TASFAR_CHECK(params[i] != nullptr && grads[i] != nullptr);
    TASFAR_CHECK(params[i]->SameShape(*grads[i]));
    if (!state.empty()) {
      TASFAR_CHECK_MSG(state[i].SameShape(*params[i]),
                       "optimizer rebound to a different parameter list");
    }
  }
}

/// A non-finite gradient would poison the parameter (and momentum state)
/// irrecoverably, so the whole parameter tensor sits this step out.
/// Reported through tasfar.guard.optimizer_grad_nonfinite.
bool SkipNonFiniteGrad(const Tensor& g) {
  return !guard::CheckFinite(g, "optimizer_grad_nonfinite");
}

/// Chaos injection shared by Sgd/Adam: poison one weight after the step,
/// as a rounding/overflow bug in an update rule would.
void MaybePoisonStep(const std::vector<Tensor*>& params) {
  if (TASFAR_FAILPOINT("optimizer.step.poison") && !params.empty() &&
      params[0]->size() > 0) {
    (*params[0])[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

Sgd::Sgd(double learning_rate, double momentum, double weight_decay)
    : Optimizer(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  TASFAR_CHECK(learning_rate > 0.0);
  TASFAR_CHECK(momentum >= 0.0 && momentum < 1.0);
  TASFAR_CHECK(weight_decay >= 0.0);
}

void Sgd::Step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads) {
  CheckBinding(params, grads, velocity_);
  if (velocity_.empty() && momentum_ > 0.0) {
    velocity_.reserve(params.size());
    for (Tensor* p : params) velocity_.emplace_back(p->shape());
  }
  // Hyper-parameters are copied to locals so stores through the raw
  // pointers cannot be assumed to change them, which lets the loops
  // vectorize; each element gets the same expression as before.
  const double lr = learning_rate_;
  const double wd = weight_decay_;
  const double mu = momentum_;
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& g = *grads[i];
    if (SkipNonFiniteGrad(g)) continue;
    const size_t n = params[i]->size();
    const double* gp = g.data();
    double* p = params[i]->data();
    if (mu > 0.0) {
      double* v = velocity_[i].data();
      for (size_t k = 0; k < n; ++k) {
        v[k] = mu * v[k] + (gp[k] + wd * p[k]);
        p[k] -= lr * v[k];
      }
    } else {
      for (size_t k = 0; k < n; ++k) p[k] -= lr * (gp[k] + wd * p[k]);
    }
  }
  MaybePoisonStep(params);
}

void Sgd::Reset() { velocity_.clear(); }

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : Optimizer(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  TASFAR_CHECK(learning_rate > 0.0);
  TASFAR_CHECK(beta1 >= 0.0 && beta1 < 1.0);
  TASFAR_CHECK(beta2 >= 0.0 && beta2 < 1.0);
  TASFAR_CHECK(epsilon > 0.0);
  TASFAR_CHECK(weight_decay >= 0.0);
}

void Adam::Step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  CheckBinding(params, grads, m_);
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (Tensor* p : params) {
      m_.emplace_back(p->shape());
      v_.emplace_back(p->shape());
    }
  }
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  // Locals for the same reason as in Sgd::Step.
  const double lr = learning_rate_;
  const double wd = weight_decay_;
  const double eps = epsilon_;
  const double b1 = beta1_;
  const double b2 = beta2_;
  const double one_minus_b1 = 1.0 - b1;
  const double one_minus_b2 = 1.0 - b2;
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& g = *grads[i];
    if (SkipNonFiniteGrad(g)) continue;
    const size_t n = params[i]->size();
    const double* gp = g.data();
    double* p = params[i]->data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (size_t k = 0; k < n; ++k) {
      const double gk = gp[k] + wd * p[k];
      m[k] = b1 * m[k] + one_minus_b1 * gk;
      v[k] = b2 * v[k] + one_minus_b2 * gk * gk;
      const double m_hat = m[k] / bc1;
      const double v_hat = v[k] / bc2;
      p[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
  MaybePoisonStep(params);
}

void Adam::Reset() {
  m_.clear();
  v_.clear();
  step_count_ = 0;
}

}  // namespace tasfar
