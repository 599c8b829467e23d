#include "uncertainty/mc_dropout.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "nn/trainer.h"
#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {

McDropoutPredictor::McDropoutPredictor(Sequential* model, size_t num_samples,
                                       size_t batch_size, uint64_t seed)
    : model_(model),
      num_samples_(num_samples),
      batch_size_(batch_size),
      seed_(seed),
      arenas_(std::make_unique<GroupArena[]>(num_samples)) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK_MSG(num_samples >= 2, "MC dropout needs >= 2 samples");
  TASFAR_CHECK(batch_size > 0);
}

std::vector<McPrediction> McDropoutPredictor::Predict(
    const Tensor& inputs) const {
  const size_t n = inputs.dim(0);
  std::vector<McPrediction> out(n);
  if (n == 0) return out;
  TASFAR_TRACE_SPAN("mc_dropout.predict");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram* const kPassMs = obs::Registry::Get().GetHistogram(
      "tasfar.mc_dropout.pass_ms", obs::Histogram::LatencyEdgesMs());
  static obs::Counter* const kPredictions =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.predictions");
  static obs::Counter* const kPasses =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.passes");
  static obs::Counter* const kF32Passes =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.f32_passes");

  // Fast path: when the process opted into the f32 compute mode
  // (TASFAR_KERNEL_BACKEND / simd::SetComputeMode) and every layer
  // supports it, stochastic passes run through the float32 kernel
  // dispatcher. Same per-group clones, same RNG stream consumption —
  // tests/golden_float/ bounds the numerical divergence.
  const bool use_f32 = simd::ComputeModeIsF32() && model_->SupportsF32();

  // Passes run in groups, a group's passes in ascending order on one
  // thread; group g forwards one fresh clone of the model in arena g. The
  // grouping mirrors the pool's own chunking of a per-pass loop, so the
  // fan-out is unchanged, and a group's passes reuse each other's (hot)
  // buffers.
  // Cloning shares every parameter buffer with the model (copy-on-write),
  // so it is a structural copy, not a weight copy, and the clone's
  // activation caches go back to the arena when it is dropped. Dropout
  // streams are pinned to (root seed, call index, pass index) — which
  // thread runs a group is irrelevant to its output and to which buffers
  // it reuses. Tasks only read `inputs`/`model_` and write disjoint
  // `passes` entries and arenas, so the fan-out is race-free and the
  // reduction below — done serially in ascending pass order — is
  // byte-identical at every thread count.
  const uint64_t call_seed =
      MixSeed(seed_, next_call_.fetch_add(1, std::memory_order_relaxed));
  // One group per chunk the pool would cut from a per-pass loop: about
  // four per lane, and a single one when the pool runs loops serially.
  const size_t lanes = GetNumThreads();
  const size_t target_groups = lanes == 1 ? 1 : lanes * 4;
  const size_t group = (num_samples_ + target_groups - 1) / target_groups;
  const size_t num_groups = (num_samples_ + group - 1) / group;
  std::vector<Tensor> passes(num_samples_);
  ParallelFor(0, num_groups, /*grain=*/1, [&](size_t g) {
    GroupArena& group_arena = arenas_[g];
    std::lock_guard<std::mutex> lock(group_arena.mu);
    Workspace::Scope arena(&group_arena.workspace);
    const std::unique_ptr<Sequential> replica = model_->CloneSequential();
    for (size_t s = g * group; s < std::min(num_samples_, (g + 1) * group);
         ++s) {
      const uint64_t t0 = metrics ? obs::MonotonicMicros() : 0;
      replica->ReseedStochastic(MixSeed(call_seed, s));
      // TASFAR_ANALYZE_ALLOW(parallel-capture): s ranges over group g's passes only, so the writes stay disjoint per g.
      passes[s] = use_f32 ? BatchedForwardF32(replica.get(), inputs,
                                              /*training=*/true, batch_size_)
                          : BatchedForward(replica.get(), inputs,
                                           /*training=*/true, batch_size_);
      if (metrics) {
        kPassMs->Observe(
            static_cast<double>(obs::MonotonicMicros() - t0) / 1000.0);
      }
    }
  });
  if (metrics) {
    kPredictions->Increment(n);
    kPasses->Increment(num_samples_);
    if (use_f32) kF32Passes->Increment(num_samples_);
  }

  // Accumulate sum and sum-of-squares across stochastic passes, in
  // workspace tensors (the square-then-add two-op order per pass matches
  // the pre-workspace `sum_sq += p * p` expression byte for byte).
  const size_t out_dim = passes[0].dim(1);
  Workspace& ws = Workspace::ThreadLocal();
  Tensor sum = ws.NewTensor(passes[0].shape());
  CopyInto(passes[0], &sum);
  Tensor sum_sq = ws.NewTensor(passes[0].shape());
  MulInto(passes[0], passes[0], &sum_sq);
  Tensor sq = ws.NewTensor(passes[0].shape());
  for (size_t s = 1; s < num_samples_; ++s) {
    AddInto(sum, passes[s], &sum);  // aliased: elementwise in-place add.
    MulInto(passes[s], passes[s], &sq);
    AddInto(sum_sq, sq, &sum_sq);  // aliased: elementwise in-place add.
  }
  const double inv_s = 1.0 / static_cast<double>(num_samples_);
  for (size_t i = 0; i < n; ++i) {
    out[i].mean.resize(out_dim);
    out[i].std.resize(out_dim);
    for (size_t j = 0; j < out_dim; ++j) {
      const double m = sum.At(i, j) * inv_s;
      double var = sum_sq.At(i, j) * inv_s - m * m;
      if (var < 0.0) var = 0.0;  // Numerical guard.
      out[i].mean[j] = m;
      out[i].std[j] = std::sqrt(var);
    }
  }
  // Chaos injection: one prediction comes back poisoned, as a corrupted
  // pass would leave it. Consumers must drop it, not crash on it.
  if (TASFAR_FAILPOINT("mc_dropout.poison")) {
    out[0].mean[0] = std::numeric_limits<double>::quiet_NaN();
    out[0].std[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

Tensor McDropoutPredictor::PredictMean(const Tensor& inputs) const {
  if (inputs.dim(0) == 0) return Tensor({0, 0});
  if (simd::ComputeModeIsF32() && model_->SupportsF32()) {
    return BatchedForwardF32(model_, inputs, /*training=*/false, batch_size_);
  }
  return BatchedForward(model_, inputs, /*training=*/false, batch_size_);
}

void McDropoutPredictor::Reseed(uint64_t seed) {
  seed_ = seed;
  next_call_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<UncertaintyEstimator> McDropoutPredictor::Clone(
    Sequential* model) const {
  return std::make_unique<McDropoutPredictor>(model, num_samples_,
                                              batch_size_, seed_);
}

}  // namespace tasfar
