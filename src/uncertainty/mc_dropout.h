#ifndef TASFAR_UNCERTAINTY_MC_DROPOUT_H_
#define TASFAR_UNCERTAINTY_MC_DROPOUT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Monte-Carlo dropout predictor (Gal, 2016), the uncertainty estimator
/// used in the paper's experiments and the pipeline's default backend
/// (UncertaintyBackend::kMcDropout): the prediction is the mean of
/// `num_samples` stochastic forward passes (dropout active at inference)
/// and the uncertainty is the standard deviation across passes.
///
/// The wrapped model must contain at least one Dropout layer for the
/// uncertainty to be non-degenerate; models without dropout yield zero
/// uncertainty, which the predictor reports as-is.
///
/// Parallelism and determinism (docs/THREADING.md): Predict fans the
/// stochastic passes across the global thread pool in groups of
/// consecutive passes (the pool's own chunking of a per-pass loop). Each
/// group forwards a fresh structural clone of the model, whose parameters
/// share the model's buffers zero-copy (docs/MEMORY.md), so passes always
/// see the model's current weights. Dropout streams are reseeded from
/// (seed, call index, pass index), which pins the masks to the pass, not
/// to the thread, so for a fixed seed the k-th Predict call on a
/// predictor returns byte-identical results at every thread count — while
/// successive calls still draw fresh dropout ensembles (the MC mean
/// remains a statistical estimate). Group g draws every activation from
/// arena g, a Workspace of its own (docs/MEMORY.md §Per-pass arenas), and
/// its clone releases them when the group ends; the thread a group lands
/// on does not decide which buffers it reuses, so at a fixed thread count
/// Predict allocates no tensor buffers after one warm-up call. Predict
/// never mutates the wrapped model; concurrent Predict calls are safe
/// (arena g is locked while group g runs) as long as nothing else mutates
/// the model. PredictMean runs the model itself (layer activation caches
/// mutate) and is not thread-safe.
class McDropoutPredictor : public UncertaintyEstimator {
 public:
  /// `model` must outlive the predictor. num_samples >= 2. `seed` is the
  /// root of every dropout stream the predictor will ever use; two
  /// predictors with the same model, seed, and call history produce
  /// identical outputs.
  McDropoutPredictor(Sequential* model, size_t num_samples = 20,
                     size_t batch_size = 64, uint64_t seed = 0x5eedULL);

  McDropoutPredictor(const McDropoutPredictor&) = delete;
  McDropoutPredictor& operator=(const McDropoutPredictor&) = delete;

  /// Runs MC-dropout over all samples in `inputs` (first dim = samples).
  /// Handles any row count: n == 0 returns an empty vector, and n that is
  /// smaller than or not a multiple of the batch size is forwarded in one
  /// short final batch.
  std::vector<McPrediction> Predict(const Tensor& inputs) const override;

  /// Deterministic (dropout-off) predictions, {n, out_dim}; returns an
  /// empty rank-2 tensor when n == 0.
  Tensor PredictMean(const Tensor& inputs) const override;

  /// Rewinds to a fresh stream root: the next Predict is call index 0 of
  /// `seed`'s stream, as on a freshly constructed predictor.
  void Reseed(uint64_t seed) override;

  /// Same num_samples/batch_size/seed over `model`, with a fresh call
  /// counter and fresh slots.
  std::unique_ptr<UncertaintyEstimator> Clone(
      Sequential* model) const override;

  const char* name() const override { return "mc_dropout"; }

  size_t num_samples() const { return num_samples_; }

 private:
  /// Group g's arena; only the task running group g touches it (under
  /// `mu` when Predict calls overlap).
  struct GroupArena {
    std::mutex mu;
    Workspace workspace;
  };

  Sequential* model_;
  size_t num_samples_;
  size_t batch_size_;
  uint64_t seed_;
  /// Stream index of the next Predict call; atomic so concurrent Predict
  /// calls draw disjoint dropout ensembles.
  mutable std::atomic<uint64_t> next_call_{0};
  /// One arena per possible group (at most one group per pass).
  std::unique_ptr<GroupArena[]> arenas_;
};

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_MC_DROPOUT_H_
