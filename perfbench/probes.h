// Per-layer probes for the traced run. Each calls one public layer of the
// library (the core stage classes, an UncertaintyEstimator, a Layer, a
// Tensor kernel) on the workload's own model and inputs, inside a
// benchmark-owned obs::TraceSpan, and reports its time or count.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tasks.h"

namespace perfbench {

/// Top-level layer kinds the nn probe reports, in report order.
const std::vector<std::string>& LayerKinds();

/// "Dense(3->4)" -> "dense", "Conv1d(...)" -> "conv1d", "MaxPool2d" -> "max_pool2d".
std::string LayerKind(const tasfar::Layer& layer);

/// One Adapt replayed stage by stage, as Tasfar::AdaptWithPredictions
/// runs it, each stage inside its own span.
struct StageReplay {
  bool byte_equal = false;  ///< Adapted weights == AdaptWithPredictions'.
  bool adapted = false;     ///< Neither skipped nor fell back.
  std::map<std::string, double> self_ms;  ///< Stage span -> self time.
  double total_ms = 0.0;
  double unattributed_ms = 0.0;  ///< Adapt span not covered by a stage.
  size_t epochs = 0;
  double uncertain_ratio = 0.0;
  uint64_t pool_chunks = 0;  ///< tasfar.thread_pool.chunks delta.
  uint64_t pool_busy_us = 0;
  uint64_t allocs = 0;  ///< GetTensorAllocStats deltas.
  uint64_t alloc_bytes = 0;
};

/// Replays Adapt of `target` with tracing on. The span names are
/// "bench.core.adapt" and its children "bench.uncertainty.predict",
/// "bench.core.partition", "bench.core.density_map",
/// "bench.core.pseudo_label", "bench.core.fine_tune".
StageReplay ReplayStages(const Task& task, const Target& target,
                         uint64_t adapt_seed);

/// Tensor allocations per steady-state Predict of each uncertainty backend
/// on `rows` (after three warm-up calls), keyed by backend name.
std::map<std::string, double> AllocsPerPredict(const Task& task,
                                               const tasfar::Tensor& rows);

/// Forward/backward time of one fine-tune-sized batch through each
/// top-level layer, summed by kind, plus a whole train step.
struct LayerTimes {
  std::map<std::string, double> forward_ms;
  std::map<std::string, double> backward_ms;
  double train_step_ms = 0.0;
  double optimizer_step_ms = 0.0;
  double matmul_ms = 0.0;     ///< Dense-shaped MatMuls of one train step.
  double matmul_gflop = 0.0;  ///< Computed from the shapes: 2*m*k*n each.
};
LayerTimes ProbeLayers(const Task& task, const tasfar::Tensor& batch,
                       size_t reps);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
