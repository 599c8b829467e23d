#include "uncertainty/mc_dropout.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/pdr_sim.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "tensor/buffer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> DropoutModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(2, 16, rng);
  m->Emplace<Relu>();
  m->Emplace<Dropout>(0.2, rng->NextU64());
  m->Emplace<Dense>(16, 1, rng);
  return m;
}

TEST(McPredictionTest, ScalarUncertaintyIsL2OfStds) {
  McPrediction p;
  p.std = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.ScalarUncertainty(), 5.0);
  McPrediction q;
  q.std = {2.0};
  EXPECT_DOUBLE_EQ(q.ScalarUncertainty(), 2.0);
}

TEST(McDropoutTest, PredictsPerSample) {
  Rng rng(1);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 10);
  Tensor x = Tensor::RandomNormal({7, 2}, &rng);
  auto preds = predictor.Predict(x);
  ASSERT_EQ(preds.size(), 7u);
  for (const auto& p : preds) {
    EXPECT_EQ(p.mean.size(), 1u);
    EXPECT_EQ(p.std.size(), 1u);
    EXPECT_GE(p.std[0], 0.0);
  }
}

TEST(McDropoutTest, DropoutProducesNonzeroUncertainty) {
  Rng rng(2);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 20);
  Tensor x = Tensor::RandomNormal({20, 2}, &rng, 0.0, 2.0);
  auto preds = predictor.Predict(x);
  double total_std = 0.0;
  for (const auto& p : preds) total_std += p.std[0];
  EXPECT_GT(total_std, 0.0);
}

TEST(McDropoutTest, NoDropoutMeansZeroUncertainty) {
  Rng rng(3);
  Sequential model;
  model.Emplace<Dense>(2, 4, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(4, 1, &rng);
  McDropoutPredictor predictor(&model, 5);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  for (const auto& p : predictor.Predict(x)) {
    EXPECT_NEAR(p.std[0], 0.0, 1e-6);  // FP round-off in sum-of-squares.
  }
}

TEST(McDropoutTest, MeanApproximatesDeterministicPrediction) {
  Rng rng(4);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 200);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  auto preds = predictor.Predict(x);
  Tensor det = predictor.PredictMean(x);
  for (size_t i = 0; i < preds.size(); ++i) {
    // MC mean is an unbiased estimate of the dropout-expected output; for
    // this near-linear head it lands close to the deterministic pass.
    EXPECT_NEAR(preds[i].mean[0], det.At(i, 0),
                5.0 * preds[i].std[0] / std::sqrt(200.0) + 0.05);
  }
}

TEST(McDropoutTest, MultiOutputStdsPerDim) {
  Rng rng(5);
  Sequential model;
  model.Emplace<Dense>(3, 8, &rng);
  model.Emplace<Dropout>(0.5, 99);
  model.Emplace<Dense>(8, 2, &rng);
  McDropoutPredictor predictor(&model, 15);
  Tensor x = Tensor::RandomNormal({4, 3}, &rng);
  auto preds = predictor.Predict(x);
  for (const auto& p : preds) {
    EXPECT_EQ(p.mean.size(), 2u);
    EXPECT_EQ(p.std.size(), 2u);
  }
}

TEST(McDropoutTest, LargerInputsLargerUncertainty) {
  // Dropout noise scales with activation magnitude, the property the
  // confidence classifier leans on (far-from-distribution inputs excite
  // larger activations and thus larger predictive variance).
  Rng rng(6);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 50);
  Tensor small = Tensor::RandomNormal({30, 2}, &rng, 0.0, 0.1);
  Tensor large = Tensor::RandomNormal({30, 2}, &rng, 0.0, 5.0);
  auto preds_small = predictor.Predict(small);
  auto preds_large = predictor.Predict(large);
  double u_small = 0.0, u_large = 0.0;
  for (const auto& p : preds_small) u_small += p.ScalarUncertainty();
  for (const auto& p : preds_large) u_large += p.ScalarUncertainty();
  EXPECT_GT(u_large, u_small);
}

TEST(McDropoutTest, EmptyInputReturnsEmpty) {
  Rng rng(20);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 5);
  Tensor empty({0, 2});
  EXPECT_TRUE(predictor.Predict(empty).empty());
  Tensor mean = predictor.PredictMean(empty);
  EXPECT_EQ(mean.rank(), 2u);
  EXPECT_EQ(mean.dim(0), 0u);
}

TEST(McDropoutTest, RowsBelowBatchSizeAreAllPredicted) {
  // Regression: n < batch_size must forward one short batch, not drop or
  // pad rows.
  Rng rng(21);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 5, /*batch_size=*/64);
  Tensor x = Tensor::RandomNormal({3, 2}, &rng);
  auto preds = predictor.Predict(x);
  ASSERT_EQ(preds.size(), 3u);
  for (const auto& p : preds) EXPECT_TRUE(std::isfinite(p.mean[0]));
}

TEST(McDropoutTest, BatchSizeDoesNotChangeResults) {
  // Regression: n % batch_size != 0 leaves a trailing partial batch; the
  // split must be invisible in the outputs (same seed ⇒ same predictions
  // whatever the batch size, since dropout masks are drawn per pass, not
  // per batch-row-count — the model here is row-independent Dense/ReLU).
  Rng rng(22);
  Sequential model;
  model.Emplace<Dense>(2, 8, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(8, 1, &rng);
  Tensor x = Tensor::RandomNormal({13, 2}, &rng);
  McDropoutPredictor whole(&model, 5, /*batch_size=*/64);
  McDropoutPredictor split(&model, 5, /*batch_size=*/4);  // 13 = 3*4 + 1.
  auto a = whole.Predict(x);
  auto b = split.Predict(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].mean[0], b[i].mean[0], 1e-12);
  }
}

TEST(McDropoutTest, PredictIsByteIdenticalAtAnyThreadCount) {
  // The determinism contract of docs/THREADING.md: same root seed + same
  // call index ⇒ identical McPredictions at 1, 2, and 8 threads.
  auto run = [](size_t threads) {
    SetNumThreads(threads);
    Rng rng(23);
    auto model = DropoutModel(&rng);
    McDropoutPredictor predictor(model.get(), 20, 8, /*seed=*/0xfeedULL);
    Tensor x = Tensor::RandomNormal({37, 2}, &rng);
    auto first = predictor.Predict(x);
    auto second = predictor.Predict(x);  // Call #2 (distinct stream).
    SetNumThreads(0);
    return std::make_pair(first, second);
  };
  auto [a1, a2] = run(1);
  auto [b1, b2] = run(2);
  auto [c1, c2] = run(8);
  auto expect_identical = [](const std::vector<McPrediction>& x_preds,
                             const std::vector<McPrediction>& y_preds) {
    ASSERT_EQ(x_preds.size(), y_preds.size());
    for (size_t i = 0; i < x_preds.size(); ++i) {
      ASSERT_EQ(x_preds[i].mean.size(), y_preds[i].mean.size());
      for (size_t j = 0; j < x_preds[i].mean.size(); ++j) {
        // EXPECT_EQ (not NEAR): byte-identical is the contract.
        EXPECT_EQ(x_preds[i].mean[j], y_preds[i].mean[j]);
        EXPECT_EQ(x_preds[i].std[j], y_preds[i].std[j]);
      }
    }
  };
  expect_identical(a1, b1);
  expect_identical(a1, c1);
  expect_identical(a2, b2);
  expect_identical(a2, c2);
}

TEST(McDropoutTest, SuccessiveCallsDrawFreshDropoutEnsembles) {
  Rng rng(24);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 10);
  Tensor x = Tensor::RandomNormal({6, 2}, &rng, 0.0, 2.0);
  auto first = predictor.Predict(x);
  auto second = predictor.Predict(x);
  double diff = 0.0;
  for (size_t i = 0; i < first.size(); ++i) {
    diff += std::fabs(first[i].mean[0] - second[i].mean[0]);
  }
  EXPECT_GT(diff, 0.0);  // Distinct per-call streams.
}

TEST(McDropoutTest, PredictDoesNotMutateTheWrappedModel) {
  Rng rng(25);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  Tensor before = model->Forward(x, /*training=*/false);
  McDropoutPredictor predictor(model.get(), 10);
  predictor.Predict(x);
  Tensor after = model->Forward(x, /*training=*/false);
  EXPECT_DOUBLE_EQ(before.MaxAbsDiff(after), 0.0);
}

TEST(McDropoutTest, PooledReplicasTrackModelWeightUpdates) {
  Rng rng(11);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  McDropoutPredictor warm(model.get(), 10, 64, 0x5eedULL);
  (void)warm.Predict(x);  // Call index 0 — fills the replica pool.

  // Fine-tune: mutate every parameter in place. Copy-on-write detaches the
  // model's buffers from the pooled replicas' shared views, so a replica
  // that skipped the checkout re-share would keep serving the old weights.
  for (Tensor* p : model->Params()) *p *= 1.5;

  auto pooled = warm.Predict(x);  // Call index 1, pooled replicas.

  // A fresh predictor clones its replicas directly from the updated model;
  // its call-index-1 ensemble must match the pooled one byte for byte.
  McDropoutPredictor fresh(model.get(), 10, 64, 0x5eedULL);
  (void)fresh.Predict(x);  // Burn call index 0.
  auto expect = fresh.Predict(x);
  ASSERT_EQ(pooled.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(pooled[i].mean.size(), expect[i].mean.size());
    for (size_t j = 0; j < expect[i].mean.size(); ++j) {
      EXPECT_EQ(pooled[i].mean[j], expect[i].mean[j]);
      EXPECT_EQ(pooled[i].std[j], expect[i].std[j]);
    }
  }
}

TEST(McDropoutTest, SteadyStatePredictOnPdrModelAllocatesNothing) {
  // Per-pass clones share the model's parameter buffers, and Conv1d, Dense
  // and Dropout read parameters and cached inputs through const views, so
  // no pass detaches a shared buffer (docs/MEMORY.md); every activation
  // comes from the pass group's own Workspace arena, whichever thread runs
  // it. Once warm, Predict must not allocate a single tensor buffer, at
  // any TASFAR_NUM_THREADS (ctest also runs this case at 1, 2 and 8).
  Rng rng(26);
  auto model = BuildPdrModel(/*window_len=*/20, &rng);
  McDropoutPredictor predictor(model.get(), 10, 16, /*seed=*/0x5eedULL);
  Tensor x = Tensor::RandomNormal({24, 6, 20}, &rng);
  for (int warm = 0; warm < 3; ++warm) (void)predictor.Predict(x);
  const TensorAllocStats before = GetTensorAllocStats();
  auto preds = predictor.Predict(x);
  const TensorAllocStats after = GetTensorAllocStats();
  EXPECT_EQ(after.alloc_count, before.alloc_count);
  EXPECT_GT(after.workspace_reuses, before.workspace_reuses);
  ASSERT_EQ(preds.size(), 24u);
}

TEST(McDropoutDeathTest, TooFewSamplesAborts) {
  Rng rng(7);
  auto model = DropoutModel(&rng);
  EXPECT_DEATH(McDropoutPredictor(model.get(), 1), ">= 2 samples");
}

}  // namespace
}  // namespace tasfar
