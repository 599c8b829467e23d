// Byte-exact checks of the elementwise training loops (ReLU, LeakyReLU,
// the dropout mask, the Dense bias gradient, SGD and Adam) against
// verbatim copies of their original loops: per-element ternaries through
// ApplyInto's std::function, the branching dropout mask, and the checked
// operator[]/At() optimizer and bias loops. The layer loops were rewritten
// to vectorize; memcmp shows any change in the bytes, including NaN
// payloads and the sign of zero, which EXPECT_NEAR and EXPECT_DOUBLE_EQ
// cannot. Conv1d's byte-exact cases live in conv_property_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace tasfar {
namespace {

void ExpectSameBytes(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

/// A {4, 16} tensor whose first row holds the edge cases (quiet NaN of
/// both signs, ±0.0, ±inf, the smallest subnormal, ±max) and whose other
/// rows are standard normal.
Tensor EdgeCaseTensor(Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  Tensor t = Tensor::RandomNormal({4, 16}, rng);
  const double edges[] = {kNan, -kNan, 0.0,   -0.0, kInf, -kInf,
                          kTiny, -kTiny, kMax, -kMax, 1.0,  -1.0};
  for (size_t i = 0; i < sizeof(edges) / sizeof(edges[0]); ++i) {
    t[i] = edges[i];
  }
  return t;
}

// --- ReLU / LeakyReLU ----------------------------------------------------

Tensor RefReluForward(const Tensor& x) {
  Tensor out(x.shape());
  ApplyInto(x, [](double v) { return v > 0.0 ? v : 0.0; }, &out);
  return out;
}

Tensor RefReluBackward(const Tensor& x, const Tensor& go) {
  Tensor g(go.shape());
  for (size_t i = 0; i < g.size(); ++i) g[i] = x[i] <= 0.0 ? 0.0 : go[i];
  return g;
}

Tensor RefLeakyForward(const Tensor& x, double s) {
  Tensor out(x.shape());
  ApplyInto(x, [s](double v) { return v > 0.0 ? v : s * v; }, &out);
  return out;
}

Tensor RefLeakyBackward(const Tensor& x, const Tensor& go, double s) {
  Tensor g(go.shape());
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = x[i] <= 0.0 ? go[i] * s : go[i];
  }
  return g;
}

TEST(ReluByteExactTest, ForwardAndBackwardMatchTernaries) {
  Rng rng(11);
  const Tensor x = EdgeCaseTensor(&rng);
  // The upstream gradient holds the same edge cases, in other positions.
  Tensor go = EdgeCaseTensor(&rng);
  for (size_t i = 0; i < 16; ++i) std::swap(go[i], go[16 + (i * 5) % 16]);
  Relu relu;
  ExpectSameBytes(relu.Forward(x, true), RefReluForward(x), "forward");
  ExpectSameBytes(relu.Backward(go), RefReluBackward(x, go), "backward");
}

TEST(LeakyReluByteExactTest, ForwardAndBackwardMatchTernaries) {
  Rng rng(12);
  const Tensor x = EdgeCaseTensor(&rng);
  Tensor go = EdgeCaseTensor(&rng);
  for (size_t i = 0; i < 16; ++i) std::swap(go[i], go[16 + (i * 7) % 16]);
  // 0 makes the leaky arm ±0.0 (or NaN for ±inf inputs); 0.3 is inexact.
  for (double slope : {0.01, 0.3, 0.0}) {
    LeakyRelu leaky(slope);
    const std::string at = " at slope " + std::to_string(slope);
    ExpectSameBytes(leaky.Forward(x, true), RefLeakyForward(x, slope),
                    "forward" + at);
    ExpectSameBytes(leaky.Backward(go), RefLeakyBackward(x, go, slope),
                    "backward" + at);
  }
}

// --- Dropout mask --------------------------------------------------------

TEST(DropoutByteExactTest, MaskSequenceMatchesBranchingForm) {
  constexpr uint64_t kSeed = 0xd20b0u;
  // 0.3 makes 1/keep inexact; 0.5 makes it exactly 2.
  for (double rate : {0.3, 0.5}) {
    Dropout dropout(rate, kSeed);
    Rng ref_rng(kSeed);
    const double keep = 1.0 - rate;
    Rng data_rng(13);
    for (int call = 0; call < 4; ++call) {
      const Tensor x = Tensor::RandomNormal({8, 37}, &data_rng);
      Tensor ref_mask(x.shape());
      for (size_t i = 0; i < ref_mask.size(); ++i) {
        ref_mask[i] = ref_rng.Bernoulli(keep) ? 1.0 / keep : 0.0;
      }
      Tensor ref_out(x.shape());
      MulInto(x, ref_mask, &ref_out);
      const std::string at =
          " at rate " + std::to_string(rate) + ", call " +
          std::to_string(call);
      ExpectSameBytes(dropout.Forward(x, true), ref_out, "forward" + at);
      // Backward multiplies by the stored mask, so ones read it back.
      ExpectSameBytes(dropout.Backward(Tensor::Ones(x.shape())), ref_mask,
                      "mask" + at);
    }
  }
}

// --- Dense bias gradient -------------------------------------------------

TEST(DenseByteExactTest, BiasGradientMatchesAtLoop) {
  Rng rng(14);
  Dense dense(5, 7, &rng);
  const Tensor x = Tensor::RandomNormal({9, 5}, &rng);
  const Tensor go = Tensor::RandomNormal({9, 7}, &rng);
  // The bias gradient accumulates onto nonzero prior values.
  Tensor ref_gb = Tensor::RandomNormal({7}, &rng);
  CopyInto(ref_gb, dense.Grads()[1]);
  for (size_t i = 0; i < go.dim(0); ++i) {
    for (size_t j = 0; j < go.dim(1); ++j) ref_gb[j] += go.At(i, j);
  }
  dense.Forward(x, true);
  dense.Backward(go);
  ExpectSameBytes(*dense.Grads()[1], ref_gb, "grad_bias");
}

// --- Optimizers ----------------------------------------------------------

/// Parameters and per-step gradients shared by the optimizer cases: three
/// tensors of different shapes, with ±0.0 among the values. On step 2 the
/// second gradient holds an inf and on step 4 a NaN, so that tensor must
/// sit those steps out while the others move.
struct OptimizerFixture {
  std::vector<Tensor> params;
  std::vector<std::vector<Tensor>> grads;  // [step][tensor]

  explicit OptimizerFixture(size_t steps) {
    Rng rng(15);
    params = {Tensor::RandomNormal({3, 5}, &rng),
              Tensor::RandomNormal({7}, &rng),
              Tensor::RandomNormal({2, 2, 3}, &rng)};
    params[0][0] = 0.0;
    params[0][1] = -0.0;
    for (size_t s = 0; s < steps; ++s) {
      std::vector<Tensor> step;
      for (const Tensor& p : params) {
        Tensor g = Tensor::RandomNormal(p.shape(), &rng);
        g[0] = -0.0;
        step.push_back(g);
      }
      if (s == 2) step[1][3] = std::numeric_limits<double>::infinity();
      if (s == 4) step[1][5] = std::numeric_limits<double>::quiet_NaN();
      grads.push_back(step);
    }
  }
};

std::vector<Tensor*> Pointers(std::vector<Tensor>* tensors) {
  std::vector<Tensor*> out;
  for (Tensor& t : *tensors) out.push_back(&t);
  return out;
}

/// The original Sgd::Step loop.
void RefSgdStep(std::vector<Tensor>* params, const std::vector<Tensor>& grads,
                std::vector<Tensor>* velocity, double lr, double momentum,
                double weight_decay) {
  if (velocity->empty() && momentum > 0.0) {
    for (const Tensor& p : *params) velocity->emplace_back(p.shape());
  }
  for (size_t i = 0; i < params->size(); ++i) {
    Tensor& p = (*params)[i];
    const Tensor& g = grads[i];
    if (!g.AllFinite()) continue;
    for (size_t k = 0; k < p.size(); ++k) {
      double gk = g[k] + weight_decay * p[k];
      if (momentum > 0.0) {
        (*velocity)[i][k] = momentum * (*velocity)[i][k] + gk;
        gk = (*velocity)[i][k];
      }
      p[k] -= lr * gk;
    }
  }
}

TEST(SgdByteExactTest, StepsMatchCheckedLoop) {
  constexpr size_t kSteps = 6;
  const OptimizerFixture fx(kSteps);
  for (double momentum : {0.0, 0.9}) {
    for (double weight_decay : {0.0, 1e-3}) {
      Sgd sgd(0.05, momentum, weight_decay);
      std::vector<Tensor> params = fx.params;
      std::vector<Tensor> ref_params = fx.params;
      std::vector<Tensor> ref_velocity;
      for (size_t s = 0; s < kSteps; ++s) {
        std::vector<Tensor> grads = fx.grads[s];
        sgd.Step(Pointers(&params), Pointers(&grads));
        RefSgdStep(&ref_params, fx.grads[s], &ref_velocity, 0.05, momentum,
                   weight_decay);
      }
      for (size_t i = 0; i < params.size(); ++i) {
        ExpectSameBytes(params[i], ref_params[i],
                        "param " + std::to_string(i) + " at momentum " +
                            std::to_string(momentum) + ", weight decay " +
                            std::to_string(weight_decay));
      }
    }
  }
}

/// The original Adam::Step loop.
void RefAdamStep(std::vector<Tensor>* params, const std::vector<Tensor>& grads,
                 std::vector<Tensor>* m, std::vector<Tensor>* v,
                 size_t step_count, double lr, double beta1, double beta2,
                 double epsilon, double weight_decay) {
  if (m->empty()) {
    for (const Tensor& p : *params) {
      m->emplace_back(p.shape());
      v->emplace_back(p.shape());
    }
  }
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step_count));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step_count));
  for (size_t i = 0; i < params->size(); ++i) {
    Tensor& p = (*params)[i];
    const Tensor& g = grads[i];
    if (!g.AllFinite()) continue;
    for (size_t k = 0; k < p.size(); ++k) {
      const double gk = g[k] + weight_decay * p[k];
      (*m)[i][k] = beta1 * (*m)[i][k] + (1.0 - beta1) * gk;
      (*v)[i][k] = beta2 * (*v)[i][k] + (1.0 - beta2) * gk * gk;
      const double m_hat = (*m)[i][k] / bc1;
      const double v_hat = (*v)[i][k] / bc2;
      p[k] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
    }
  }
}

TEST(AdamByteExactTest, StepsMatchCheckedLoop) {
  constexpr size_t kSteps = 6;
  const OptimizerFixture fx(kSteps);
  for (double weight_decay : {0.0, 1e-3}) {
    Adam adam(1e-2, 0.9, 0.999, 1e-8, weight_decay);
    std::vector<Tensor> params = fx.params;
    std::vector<Tensor> ref_params = fx.params;
    std::vector<Tensor> ref_m, ref_v;
    for (size_t s = 0; s < kSteps; ++s) {
      std::vector<Tensor> grads = fx.grads[s];
      adam.Step(Pointers(&params), Pointers(&grads));
      RefAdamStep(&ref_params, fx.grads[s], &ref_m, &ref_v, s + 1, 1e-2, 0.9,
                  0.999, 1e-8, weight_decay);
    }
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectSameBytes(params[i], ref_params[i],
                      "param " + std::to_string(i) + " at weight decay " +
                          std::to_string(weight_decay));
    }
  }
}

}  // namespace
}  // namespace tasfar
