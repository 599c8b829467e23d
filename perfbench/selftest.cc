// Self-test of the benchmark's own arithmetic on fixed inputs: exact
// quantiles, span self time, and layer-kind naming. perfbench/run.py runs
// it before every benchmark run; a non-zero exit stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "probes.h"
#include "stats.h"
#include "util/rng.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestQuantiles() {
  using perfbench::Quantile;
  Expect(Quantile({}, 0.5) == 0.0, "empty quantile is 0");
  // A single sample is every quantile of itself (a bucketed histogram
  // would report 442 ms as 393 ms).
  Expect(Quantile({442.0}, 0.5) == 442.0, "single-sample p50");
  Expect(Quantile({442.0}, 0.99) == 442.0, "single-sample p99");
  Expect(Near(Quantile({3, 1, 2, 4}, 0.5), 2.5), "even-count median");
  Expect(Near(Quantile({5, 1, 3}, 0.5), 3.0), "odd-count median");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Near(Quantile(hundred, 0.9), 90.1), "p90 of 1..100");
  Expect(Near(Quantile(hundred, 0.99), 99.01), "p99 of 1..100");
  Expect(Quantile(hundred, 0.0) == 1.0 && Quantile(hundred, 1.0) == 100.0,
         "extreme quantiles");
  Expect(Near(perfbench::Mean({1, 2, 3, 6}), 3.0), "mean");
  Expect(perfbench::Max({1, 7, 3}) == 7.0, "max");
}

void TestSelfTime() {
  using perfbench::Span;
  // adapt [0,100): children predict [0,30), fine_tune [40,90) and an
  // overlapping [80,95); a grandchild [45,60) under fine_tune; a span of
  // another tree inside the interval.
  const std::vector<Span> spans = {
      {"bench.core.adapt", 1, 0, 0, 100},
      {"bench.uncertainty.predict", 2, 1, 0, 30},
      {"bench.core.fine_tune", 3, 1, 40, 50},
      {"bench.core.pseudo_label", 4, 1, 80, 15},
      {"bench.nn.layers", 5, 3, 45, 15},
      {"bench.other", 6, 99, 10, 80},
  };
  Expect(perfbench::SelfTimeUs(spans[0], spans) == 100 - 30 - 55,
         "self time subtracts the union of direct children");
  Expect(perfbench::SelfTimeUs(spans[2], spans) == 50 - 15,
         "self time subtracts only its own children");
  Expect(perfbench::SelfTimeUs(spans[1], spans) == 30, "leaf self time");
  // A child sticking out of its parent is clipped.
  const std::vector<Span> clipped = {{"p", 1, 0, 100, 10}, {"c", 2, 1, 95, 10}};
  Expect(perfbench::SelfTimeUs(clipped[0], clipped) == 5, "clipped child");
}

void TestLayerKind() {
  tasfar::Rng rng(1);
  Expect(perfbench::LayerKind(tasfar::Dense(3, 4, &rng)) == "dense", "dense");
  Expect(perfbench::LayerKind(tasfar::Relu()) == "relu", "relu");
}

}  // namespace

int main() {
  TestQuantiles();
  TestSelfTime();
  TestLayerKind();
  if (g_failures == 0) std::printf("perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
