// Property-style checks of the convolutions against naive reference
// implementations across stride/padding/dilation combinations, plus
// byte-exact checks against the original one-At()-per-multiply-add loop
// nests, which pin the per-element floating-point summation order the
// direct kernels must keep (the double golden path is byte-identical).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>

#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "util/rng.h"

namespace tasfar {
namespace {

// --- Conv1d reference ---------------------------------------------------

double RefConv1dAt(const Tensor& x, const Tensor& w, const Tensor& b,
                   size_t batch, size_t oc, size_t to, size_t stride,
                   size_t padding, size_t dilation) {
  double acc = b[oc];
  const size_t in_ch = x.dim(1), t_in = x.dim(2), kernel = w.dim(2);
  for (size_t ic = 0; ic < in_ch; ++ic) {
    for (size_t k = 0; k < kernel; ++k) {
      const long ti = static_cast<long>(to * stride + k * dilation) -
                      static_cast<long>(padding);
      if (ti < 0 || ti >= static_cast<long>(t_in)) continue;
      acc += w.At(oc, ic, k) * x.At(batch, ic, static_cast<size_t>(ti));
    }
  }
  return acc;
}

using Conv1dParam = std::tuple<size_t /*stride*/, size_t /*pad*/,
                               size_t /*dilation*/, size_t /*kernel*/>;

class Conv1dPropertyTest : public ::testing::TestWithParam<Conv1dParam> {};

TEST_P(Conv1dPropertyTest, ForwardMatchesReference) {
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto dilation = std::get<2>(GetParam());
  const auto kernel = std::get<3>(GetParam());
  Rng rng(stride * 100 + pad * 10 + dilation + kernel);
  Conv1d conv(3, 2, kernel, &rng, stride, pad, dilation);
  Tensor x = Tensor::RandomNormal({2, 3, 12}, &rng);
  Tensor y = conv.Forward(x, false);
  const Tensor& w = *conv.Params()[0];
  const Tensor& b = *conv.Params()[1];
  for (size_t n = 0; n < y.dim(0); ++n) {
    for (size_t oc = 0; oc < y.dim(1); ++oc) {
      for (size_t to = 0; to < y.dim(2); ++to) {
        EXPECT_NEAR(y.At(n, oc, to),
                    RefConv1dAt(x, w, b, n, oc, to, stride, pad, dilation),
                    1e-10);
      }
    }
  }
}

TEST_P(Conv1dPropertyTest, BackwardIsLinearInUpstreamGradient) {
  // Backward(g1 + g2) == Backward(g1) + Backward(g2) for the input grad,
  // and parameter grads accumulate identically.
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto dilation = std::get<2>(GetParam());
  const auto kernel = std::get<3>(GetParam());
  Rng rng(stride + pad * 7 + dilation * 13 + kernel * 29);
  Conv1d conv(2, 3, kernel, &rng, stride, pad, dilation);
  Tensor x = Tensor::RandomNormal({1, 2, 12}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g1 = Tensor::RandomNormal(y.shape(), &rng);
  Tensor g2 = Tensor::RandomNormal(y.shape(), &rng);

  conv.ZeroGrads();
  Tensor gi_sum = conv.Backward(g1 + g2);
  Tensor gw_sum = *conv.Grads()[0];

  conv.ZeroGrads();
  Tensor gi_split = conv.Backward(g1);
  gi_split += conv.Backward(g2);
  Tensor gw_split = *conv.Grads()[0];

  EXPECT_NEAR(gi_sum.MaxAbsDiff(gi_split), 0.0, 1e-10);
  EXPECT_NEAR(gw_sum.MaxAbsDiff(gw_split), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv1dPropertyTest,
    ::testing::Values(Conv1dParam{1, 0, 1, 3}, Conv1dParam{1, 1, 1, 3},
                      Conv1dParam{2, 0, 1, 3}, Conv1dParam{1, 2, 2, 3},
                      Conv1dParam{2, 2, 2, 5}, Conv1dParam{1, 0, 3, 2},
                      Conv1dParam{3, 1, 1, 4}),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "p" +
             std::to_string(std::get<1>(param_info.param)) + "d" +
             std::to_string(std::get<2>(param_info.param)) + "k" +
             std::to_string(std::get<3>(param_info.param));
    });

// --- Conv2d reference ---------------------------------------------------

using Conv2dParam = std::tuple<size_t /*stride*/, size_t /*pad*/,
                               size_t /*kernel*/>;

class Conv2dPropertyTest : public ::testing::TestWithParam<Conv2dParam> {};

TEST_P(Conv2dPropertyTest, ForwardMatchesReference) {
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto kernel = std::get<2>(GetParam());
  Rng rng(stride * 31 + pad * 7 + kernel);
  Conv2d conv(2, 2, kernel, &rng, stride, pad);
  Tensor x = Tensor::RandomNormal({1, 2, 8, 8}, &rng);
  Tensor y = conv.Forward(x, false);
  const Tensor& w = *conv.Params()[0];
  const Tensor& b = *conv.Params()[1];
  for (size_t oc = 0; oc < y.dim(1); ++oc) {
    for (size_t ho = 0; ho < y.dim(2); ++ho) {
      for (size_t wo = 0; wo < y.dim(3); ++wo) {
        double ref = b[oc];
        for (size_t ic = 0; ic < 2; ++ic) {
          for (size_t kh = 0; kh < kernel; ++kh) {
            for (size_t kw = 0; kw < kernel; ++kw) {
              const long hi = static_cast<long>(ho * stride + kh) -
                              static_cast<long>(pad);
              const long wi = static_cast<long>(wo * stride + kw) -
                              static_cast<long>(pad);
              if (hi < 0 || hi >= 8 || wi < 0 || wi >= 8) continue;
              ref += w.At(oc, ic, kh, kw) *
                     x.At(0, ic, static_cast<size_t>(hi),
                          static_cast<size_t>(wi));
            }
          }
        }
        EXPECT_NEAR(y.At(0, oc, ho, wo), ref, 1e-10);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv2dPropertyTest,
    ::testing::Values(Conv2dParam{1, 0, 3}, Conv2dParam{1, 1, 3},
                      Conv2dParam{2, 0, 3}, Conv2dParam{2, 2, 5},
                      Conv2dParam{1, 0, 1}, Conv2dParam{3, 1, 2}),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "p" +
             std::to_string(std::get<1>(param_info.param)) + "k" +
             std::to_string(std::get<2>(param_info.param));
    });

// --- Byte-exact order references ------------------------------------------
//
// RefConv{1,2}d{Forward,Backward} are verbatim copies of the original layer
// loop nests: every output starts from its bias and adds taps in (ic, k...)
// order; every gradient element accumulates in (b, output position) order,
// skipping zero upstream gradients. A reordered sum changes low-order bits,
// which EXPECT_NEAR cannot see but memcmp can.

void ExpectSameBytes(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what << ": max |diff| = " << got.MaxAbsDiff(want);
}

/// Random upstream gradient with every third entry exactly zero, so the
/// `go == 0` skip is exercised.
Tensor SparseGradient(const std::vector<size_t>& shape, Rng* rng) {
  Tensor g = Tensor::RandomNormal(shape, rng);
  for (size_t i = 0; i < g.size(); i += 3) g[i] = 0.0;
  return g;
}

Tensor RefConv1dForward(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, size_t stride, size_t padding,
                        size_t dilation) {
  const size_t batch = input.dim(0), in_channels = input.dim(1);
  const size_t t_in = input.dim(2);
  const size_t out_channels = weight.dim(0), kernel_size = weight.dim(2);
  const size_t t_out =
      (t_in + 2 * padding - (dilation * (kernel_size - 1) + 1)) / stride + 1;
  Tensor out({batch, out_channels, t_out});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_channels; ++oc) {
      for (size_t to = 0; to < t_out; ++to) {
        double acc = bias[oc];
        for (size_t ic = 0; ic < in_channels; ++ic) {
          for (size_t k = 0; k < kernel_size; ++k) {
            const long ti = static_cast<long>(to * stride + k * dilation) -
                            static_cast<long>(padding);
            if (ti < 0 || ti >= static_cast<long>(t_in)) continue;
            acc += weight.At(oc, ic, k) *
                   input.At(b, ic, static_cast<size_t>(ti));
          }
        }
        out.At(b, oc, to) = acc;
      }
    }
  }
  return out;
}

/// Accumulates onto *grad_weight / *grad_bias and returns grad_input.
Tensor RefConv1dBackward(const Tensor& input, const Tensor& weight,
                         const Tensor& grad_output, size_t stride,
                         size_t padding, size_t dilation, Tensor* grad_weight,
                         Tensor* grad_bias) {
  const size_t batch = input.dim(0), in_channels = input.dim(1);
  const size_t t_in = input.dim(2);
  const size_t out_channels = weight.dim(0), kernel_size = weight.dim(2);
  const size_t t_out = grad_output.dim(2);
  Tensor grad_input(input.shape());
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_channels; ++oc) {
      for (size_t to = 0; to < t_out; ++to) {
        const double go = grad_output.At(b, oc, to);
        if (go == 0.0) continue;
        (*grad_bias)[oc] += go;
        for (size_t ic = 0; ic < in_channels; ++ic) {
          for (size_t k = 0; k < kernel_size; ++k) {
            const long ti = static_cast<long>(to * stride + k * dilation) -
                            static_cast<long>(padding);
            if (ti < 0 || ti >= static_cast<long>(t_in)) continue;
            const size_t tiu = static_cast<size_t>(ti);
            grad_weight->At(oc, ic, k) += go * input.At(b, ic, tiu);
            grad_input.At(b, ic, tiu) += go * weight.At(oc, ic, k);
          }
        }
      }
    }
  }
  return grad_input;
}

struct Conv1dCase {
  const char* name;
  size_t in_channels, out_channels, kernel, stride, padding, dilation;
  size_t batch, t_in;
  /// Put +inf and -inf into the input, so that the cached input Backward
  /// reads is non-finite and some gradients become inf or NaN.
  bool inf_input = false;
};

// Names the case in gtest output (the default dumps the struct's bytes,
// including the name pointer).
void PrintTo(const Conv1dCase& c, std::ostream* os) { *os << c.name; }

class Conv1dByteExactTest : public ::testing::TestWithParam<Conv1dCase> {};

TEST_P(Conv1dByteExactTest, ForwardAndBackwardMatchReferenceBytes) {
  const Conv1dCase& c = GetParam();
  Rng rng(c.in_channels * 1000 + c.kernel * 100 + c.padding * 10 + c.stride);
  Conv1d conv(c.in_channels, c.out_channels, c.kernel, &rng, c.stride,
              c.padding, c.dilation);
  Tensor x = Tensor::RandomNormal({c.batch, c.in_channels, c.t_in}, &rng);
  if (c.inf_input) {
    x.At(0, 0, 3) = std::numeric_limits<double>::infinity();
    x.At(c.batch - 1, c.in_channels - 1, c.t_in - 2) =
        -std::numeric_limits<double>::infinity();
  }
  const Tensor w = *conv.Params()[0];
  const Tensor b = *conv.Params()[1];

  const Tensor y = conv.Forward(x, /*training=*/true);
  ExpectSameBytes(y, RefConv1dForward(x, w, b, c.stride, c.padding,
                                      c.dilation),
                  "forward");

  // Parameter gradients accumulate onto nonzero prior values.
  Tensor ref_gw = Tensor::RandomNormal(w.shape(), &rng);
  Tensor ref_gb = Tensor::RandomNormal(b.shape(), &rng);
  CopyInto(ref_gw, conv.Grads()[0]);
  CopyInto(ref_gb, conv.Grads()[1]);
  const Tensor g = SparseGradient(y.shape(), &rng);
  const Tensor gi = conv.Backward(g);
  const Tensor ref_gi = RefConv1dBackward(x, w, g, c.stride, c.padding,
                                          c.dilation, &ref_gw, &ref_gb);
  ExpectSameBytes(gi, ref_gi, "grad_input");
  ExpectSameBytes(*conv.Grads()[0], ref_gw, "grad_weight");
  ExpectSameBytes(*conv.Grads()[1], ref_gb, "grad_bias");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv1dByteExactTest,
    ::testing::Values(
        // The stride/padding/dilation/kernel sweep above.
        Conv1dCase{"s1p0d1k3", 3, 2, 3, 1, 0, 1, 2, 12},
        Conv1dCase{"s1p1d1k3", 3, 2, 3, 1, 1, 1, 2, 12},
        Conv1dCase{"s2p0d1k3", 3, 2, 3, 2, 0, 1, 2, 12},
        Conv1dCase{"s1p2d2k3", 3, 2, 3, 1, 2, 2, 2, 12},
        Conv1dCase{"s2p2d2k5", 3, 2, 5, 2, 2, 2, 2, 12},
        Conv1dCase{"s1p0d3k2", 3, 2, 2, 1, 0, 3, 2, 12},
        Conv1dCase{"s3p1d1k4", 3, 2, 4, 3, 1, 1, 2, 12},
        // The two BuildPdrModel layers on a 20-sample window.
        Conv1dCase{"pdr_layer1", 6, 16, 5, 1, 2, 1, 3, 20},
        Conv1dCase{"pdr_layer2", 16, 16, 3, 1, 2, 2, 3, 20},
        // Padding wider than the effective kernel: whole taps fall outside
        // the input for the edge outputs.
        Conv1dCase{"wide_pad", 2, 3, 3, 1, 5, 1, 2, 4},
        Conv1dCase{"wide_pad_strided", 2, 3, 2, 2, 4, 2, 2, 3},
        // One input channel: every fused tap run is as short as the taps.
        Conv1dCase{"in1", 1, 4, 3, 1, 1, 1, 2, 12},
        // Stride 2 with dilation 1 and padding: the fused path with
        // partial tap runs at both edges.
        Conv1dCase{"s2p1d1k4", 3, 2, 4, 2, 1, 1, 2, 13},
        // Non-finite cached input on both Backward paths.
        Conv1dCase{"inf_input", 6, 16, 5, 1, 2, 1, 2, 20, true},
        Conv1dCase{"inf_input_dilated", 16, 16, 3, 1, 2, 2, 2, 20, true}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

Tensor RefConv2dForward(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, size_t stride, size_t padding) {
  const size_t batch = input.dim(0), in_channels = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  const size_t out_channels = weight.dim(0), kernel_size = weight.dim(2);
  const size_t h_out = (h_in + 2 * padding - kernel_size) / stride + 1;
  const size_t w_out = (w_in + 2 * padding - kernel_size) / stride + 1;
  Tensor out({batch, out_channels, h_out, w_out});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_channels; ++oc) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          double acc = bias[oc];
          for (size_t ic = 0; ic < in_channels; ++ic) {
            for (size_t kh = 0; kh < kernel_size; ++kh) {
              const long hi = static_cast<long>(ho * stride + kh) -
                              static_cast<long>(padding);
              if (hi < 0 || hi >= static_cast<long>(h_in)) continue;
              for (size_t kw = 0; kw < kernel_size; ++kw) {
                const long wi = static_cast<long>(wo * stride + kw) -
                                static_cast<long>(padding);
                if (wi < 0 || wi >= static_cast<long>(w_in)) continue;
                acc += weight.At(oc, ic, kh, kw) *
                       input.At(b, ic, static_cast<size_t>(hi),
                                static_cast<size_t>(wi));
              }
            }
          }
          out.At(b, oc, ho, wo) = acc;
        }
      }
    }
  }
  return out;
}

/// Accumulates onto *grad_weight / *grad_bias and returns grad_input.
Tensor RefConv2dBackward(const Tensor& input, const Tensor& weight,
                         const Tensor& grad_output, size_t stride,
                         size_t padding, Tensor* grad_weight,
                         Tensor* grad_bias) {
  const size_t batch = input.dim(0), in_channels = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  const size_t out_channels = weight.dim(0), kernel_size = weight.dim(2);
  const size_t h_out = grad_output.dim(2), w_out = grad_output.dim(3);
  Tensor grad_input(input.shape());
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_channels; ++oc) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          const double go = grad_output.At(b, oc, ho, wo);
          if (go == 0.0) continue;
          (*grad_bias)[oc] += go;
          for (size_t ic = 0; ic < in_channels; ++ic) {
            for (size_t kh = 0; kh < kernel_size; ++kh) {
              const long hi = static_cast<long>(ho * stride + kh) -
                              static_cast<long>(padding);
              if (hi < 0 || hi >= static_cast<long>(h_in)) continue;
              for (size_t kw = 0; kw < kernel_size; ++kw) {
                const long wi = static_cast<long>(wo * stride + kw) -
                                static_cast<long>(padding);
                if (wi < 0 || wi >= static_cast<long>(w_in)) continue;
                const size_t hiu = static_cast<size_t>(hi);
                const size_t wiu = static_cast<size_t>(wi);
                grad_weight->At(oc, ic, kh, kw) +=
                    go * input.At(b, ic, hiu, wiu);
                grad_input.At(b, ic, hiu, wiu) +=
                    go * weight.At(oc, ic, kh, kw);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

struct Conv2dCase {
  const char* name;
  size_t in_channels, out_channels, kernel, stride, padding;
  size_t batch, h_in, w_in;
};

void PrintTo(const Conv2dCase& c, std::ostream* os) { *os << c.name; }

class Conv2dByteExactTest : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dByteExactTest, ForwardAndBackwardMatchReferenceBytes) {
  const Conv2dCase& c = GetParam();
  Rng rng(c.in_channels * 1000 + c.kernel * 100 + c.padding * 10 + c.stride);
  Conv2d conv(c.in_channels, c.out_channels, c.kernel, &rng, c.stride,
              c.padding);
  const Tensor x =
      Tensor::RandomNormal({c.batch, c.in_channels, c.h_in, c.w_in}, &rng);
  const Tensor w = *conv.Params()[0];
  const Tensor b = *conv.Params()[1];

  const Tensor y = conv.Forward(x, /*training=*/true);
  ExpectSameBytes(y, RefConv2dForward(x, w, b, c.stride, c.padding),
                  "forward");

  Tensor ref_gw = Tensor::RandomNormal(w.shape(), &rng);
  Tensor ref_gb = Tensor::RandomNormal(b.shape(), &rng);
  CopyInto(ref_gw, conv.Grads()[0]);
  CopyInto(ref_gb, conv.Grads()[1]);
  const Tensor g = SparseGradient(y.shape(), &rng);
  const Tensor gi = conv.Backward(g);
  const Tensor ref_gi = RefConv2dBackward(x, w, g, c.stride, c.padding,
                                          &ref_gw, &ref_gb);
  ExpectSameBytes(gi, ref_gi, "grad_input");
  ExpectSameBytes(*conv.Grads()[0], ref_gw, "grad_weight");
  ExpectSameBytes(*conv.Grads()[1], ref_gb, "grad_bias");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dByteExactTest,
    ::testing::Values(
        // The stride/padding/kernel sweep above.
        Conv2dCase{"s1p0k3", 2, 2, 3, 1, 0, 1, 8, 8},
        Conv2dCase{"s1p1k3", 2, 2, 3, 1, 1, 1, 8, 8},
        Conv2dCase{"s2p0k3", 2, 2, 3, 2, 0, 1, 8, 8},
        Conv2dCase{"s2p2k5", 2, 2, 5, 2, 2, 1, 8, 8},
        Conv2dCase{"s1p0k1", 2, 2, 1, 1, 0, 1, 8, 8},
        Conv2dCase{"s3p1k2", 2, 2, 2, 3, 1, 1, 8, 8},
        // The BuildCrowdModel column layers (first layer of each column,
        // then the shared 4->8 shape after pooling).
        Conv2dCase{"crowd_k3", 1, 4, 3, 1, 1, 2, 12, 12},
        Conv2dCase{"crowd_k5", 1, 4, 5, 1, 2, 2, 12, 12},
        Conv2dCase{"crowd_k7", 1, 4, 7, 1, 3, 2, 12, 12},
        Conv2dCase{"crowd_second", 4, 8, 3, 1, 1, 2, 6, 6},
        // Non-square input and padding wider than the kernel.
        Conv2dCase{"non_square", 2, 3, 3, 2, 1, 2, 5, 7},
        Conv2dCase{"wide_pad", 2, 3, 3, 1, 4, 1, 3, 2}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
}  // namespace tasfar
