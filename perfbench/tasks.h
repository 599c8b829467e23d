// The benchmark's task set-ups: simulate a source and a target domain, train
// the source model, calibrate it, and split the target into the unlabeled
// rows Adapt sees and the held-out labelled rows it is scored on.
#ifndef PERFBENCH_TASKS_H_
#define PERFBENCH_TASKS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tasfar.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Wall time of each set-up step, in seconds. Housing trains and
/// calibrates inside TabularHarness::Prepare, whose trace spans split the
/// two; so there the split is filled only when the set-up ran with tracing
/// on, and otherwise source_train_s holds all of Prepare.
struct SetupTimes {
  double simulate_s = 0.0;
  double source_train_s = 0.0;
  double calibrate_s = 0.0;
  /// Part of calibrate_s after the uncertainty predict: the τ and Q_s fit.
  double calibrate_fit_ms = 0.0;
};

/// One adaptation target: a shard or a user. Adapt only ever sees
/// `adapt_inputs`; `test_*` are disjoint held-out rows with labels.
struct Target {
  std::string name;
  tasfar::Tensor adapt_inputs;
  tasfar::Tensor test_inputs;
  tasfar::Tensor test_targets;
  double source_error = 0.0;  ///< Paper metric of the source model on test.
};

/// How a task scores predictions: the paper's metric for that task.
enum class TaskMetric { kMse, kSte };

/// A calibrated source model with its targets.
struct Task {
  std::string name;
  TaskMetric metric = TaskMetric::kMse;
  std::unique_ptr<tasfar::Sequential> source;
  tasfar::SourceCalibration calibration;
  tasfar::TasfarOptions options;
  std::vector<Target> targets;
  /// Maps model outputs to label units before scoring: undo the label
  /// standardization.
  double label_mean = 0.0;
  double label_std = 1.0;
  /// TabularHarness::Metric of the source model on the held-out rows, for
  /// the task set up through the harness: Error must agree with it.
  std::optional<double> harness_source_error;
  SetupTimes times;

  /// The task's paper metric of `model` on `target`'s held-out rows.
  double Error(tasfar::Sequential* model, const Target& target) const;
  /// Same, for predictions already made (model output units).
  double ErrorOf(const tasfar::Tensor& outputs, const Target& target) const;
};

/// The task names SetupTask accepts: housing, pdr. housing is set up
/// through TabularHarness with the repository's paper options for it; pdr
/// follows the PdrHarness flow.
Task SetupTask(const std::string& name, uint64_t seed);

/// `rows` rows cycled from the rows of `pool`.
tasfar::Tensor Tile(const tasfar::Tensor& pool, size_t rows);

/// True when every parameter of `model` is finite.
bool AllParamsFinite(tasfar::Sequential* model);

/// True when the parameters of `a` and `b` are equal byte for byte.
bool ParamsByteEqual(tasfar::Sequential* a, tasfar::Sequential* b);

}  // namespace perfbench

#endif  // PERFBENCH_TASKS_H_
