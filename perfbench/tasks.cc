#include "tasks.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "data/dataset.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "eval/metrics.h"
#include "eval/pdr_harness.h"
#include "eval/tabular_harness.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using tasfar::Dataset;
using tasfar::Rng;
using tasfar::Sequential;
using tasfar::Tensor;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Task sizes. Each is chosen so that one Adapt call stays under a second,
// a run holds tens of them, and set-up stays a few seconds. The fine-tune
// keeps the library's early stopping, so its epoch count is the one a
// user's Adapt would run; the epoch caps below bound its work.
constexpr size_t kHousingSourceRows = 2000;
constexpr size_t kHousingTargetRows = 2000;  // 1,600 adapt + 400 held out.
constexpr size_t kHousingShardRows = 200;

constexpr size_t kPdrSeenUsers = 3;
constexpr size_t kPdrUnseenUsers = 3;
constexpr size_t kPdrSourceStepsPerUser = 120;
constexpr size_t kPdrStepsPerTrajectory = 24;
constexpr size_t kPdrTrajectoriesPerUser = 5;
constexpr size_t kPdrSourceEpochs = 16;
constexpr size_t kPdrAdaptEpochs = 15;

tasfar::LossFn MseLoss() {
  return [](const Tensor& p, const Tensor& t, Tensor* g,
            const std::vector<double>* w) {
    return tasfar::loss::Mse(p, t, g, w);
  };
}

// Adam on `train`, then half as many epochs at a fifth of the learning
// rate, as PdrHarness::Prepare trains its source.
void TrainPdrSource(Sequential* model, const Dataset& train, size_t epochs,
                    Rng* rng) {
  tasfar::Adam optimizer(1e-3);
  tasfar::Trainer trainer(model, &optimizer, MseLoss());
  tasfar::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  trainer.Fit(train.inputs, train.targets, tc, rng);
  optimizer.set_learning_rate(1e-3 / 5.0);
  tc.epochs = epochs / 2;
  trainer.Fit(train.inputs, train.targets, tc, rng);
}

// Tasfar::Calibrate split in its two steps so that the fit is timed alone.
void Calibrate(Task* task, const Dataset& calib) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<tasfar::McPrediction> preds =
      tasfar::MakeEstimator(task->source.get(),
                            tasfar::EstimatorConfigFromOptions(task->options))
          ->Predict(calib.inputs);
  const Clock::time_point t1 = Clock::now();
  task->calibration = tasfar::Tasfar(task->options)
                          .CalibrateFromPredictions(preds, calib.targets);
  task->times.calibrate_fit_ms = SecondsSince(t1) * 1000.0;
  task->times.calibrate_s = SecondsSince(t0);
}

// The options of the repository's paper configuration for housing
// (PaperHousingConfig in bench/bench_common.cc), with the benchmark's seed.
tasfar::TabularHarnessConfig HousingConfig(uint64_t seed) {
  tasfar::TabularHarnessConfig cfg;
  cfg.task_name = "housing";
  cfg.metric = tasfar::TabularMetric::kMse;
  cfg.seed = tasfar::MixSeed(seed, 22);
  cfg.source_epochs = 40;
  cfg.tasfar.mc_samples = 20;
  cfg.tasfar.eta = 0.9;
  cfg.tasfar.num_segments = 40;
  cfg.tasfar.grid_cell_size = 0.05;  // Standardized label units.
  cfg.tasfar.adaptation.train.epochs = 40;
  return cfg;
}

// Prepare trains the source model and then calibrates it. With tracing on,
// its spans split the two: the calibration is the estimator's predict on
// the calibration rows followed by the "calibrate" fit.
void SplitPrepareTime(double prepare_s, SetupTimes* times) {
  times->source_train_s = prepare_s;
  if (!tasfar::obs::TracingEnabled()) return;
  uint64_t predict_us = 0;
  uint64_t fit_us = 0;
  for (const tasfar::obs::TraceEvent& e : tasfar::obs::SnapshotTraceEvents()) {
    const std::string name = e.name;
    if (name == "calibrate") fit_us += e.dur_us;
    if (name == "mc_dropout.predict") predict_us += e.dur_us;
  }
  times->calibrate_fit_ms = static_cast<double>(fit_us) / 1e3;
  times->calibrate_s = static_cast<double>(predict_us + fit_us) / 1e6;
  times->source_train_s = prepare_s - times->calibrate_s;
}

Task SetupHousing(uint64_t seed) {
  const tasfar::TabularHarnessConfig cfg = HousingConfig(seed);
  Task task;
  task.name = cfg.task_name;
  task.metric = TaskMetric::kMse;
  task.options = cfg.tasfar;

  Clock::time_point t0 = Clock::now();
  tasfar::HousingSimConfig sim;
  sim.source_samples = kHousingSourceRows;
  sim.target_samples = kHousingTargetRows;
  tasfar::HousingSimulator simulator(sim, tasfar::MixSeed(seed, 12));
  Dataset source = simulator.GenerateSource();
  Dataset target = simulator.GenerateTarget();
  task.times.simulate_s = SecondsSince(t0);

  tasfar::TabularHarness harness(cfg, std::move(source), std::move(target));
  if (tasfar::obs::TracingEnabled()) tasfar::obs::ClearTraceEvents();
  t0 = Clock::now();
  harness.Prepare();
  SplitPrepareTime(SecondsSince(t0), &task.times);
  task.source = harness.source_model()->CloneSequential();
  task.calibration = harness.calibration();
  task.label_mean = harness.label_mean();
  task.label_std = harness.label_std();

  // The harness keeps every label in model units; the held-out labels are
  // taken back to raw units exactly as TabularHarness::Metric does.
  const Dataset& test = harness.target_test();
  const Tensor raw_test_targets = test.targets.Map(
      [&task](double y) { return y * task.label_std + task.label_mean; });
  task.harness_source_error =
      harness.Metric(harness.source_model(), test.inputs, test.targets);

  const Dataset& adapt = harness.target_adapt();
  const size_t shards = adapt.size() / kHousingShardRows;
  for (size_t s = 0; s < shards; ++s) {
    Target t;
    t.name = task.name + "/shard" + std::to_string(s);
    t.adapt_inputs = adapt.inputs.SliceRows(s * kHousingShardRows,
                                            (s + 1) * kHousingShardRows);
    t.test_inputs = test.inputs;
    t.test_targets = raw_test_targets;
    task.targets.push_back(std::move(t));
  }
  return task;
}

Task SetupPdr(uint64_t seed) {
  Task task;
  task.name = "pdr";
  task.metric = TaskMetric::kSte;
  task.options.mc_samples = 15;
  task.options.grid_cell_size = 0.1;  // 10 cm, the paper's setting.
  task.options.adaptation.train.epochs = kPdrAdaptEpochs;

  Clock::time_point t0 = Clock::now();
  tasfar::PdrSimConfig sim;
  // Seen and unseen users walk the same number of trajectories, so that
  // every Adapt of a run adapts the same number of windows.
  sim.target_trajectories_seen = kPdrTrajectoriesPerUser;
  sim.target_trajectories_unseen = kPdrTrajectoriesPerUser;
  sim.num_seen_users = kPdrSeenUsers;
  sim.num_unseen_users = kPdrUnseenUsers;
  sim.source_steps_per_user = kPdrSourceStepsPerUser;
  sim.steps_per_trajectory = kPdrStepsPerTrajectory;
  tasfar::PdrSimulator simulator(sim, tasfar::MixSeed(seed, 13));
  const Dataset source = simulator.GenerateSourceDataset();
  const std::vector<tasfar::PdrUserData> users =
      simulator.GenerateTargetUsers();
  Rng rng(tasfar::MixSeed(seed, 23));
  tasfar::SplitResult src = tasfar::SplitFraction(source, 0.75, true, &rng);
  task.times.simulate_s = SecondsSince(t0);

  t0 = Clock::now();
  task.source = tasfar::BuildPdrModel(sim.window_len, &rng);
  TrainPdrSource(task.source.get(), src.first, kPdrSourceEpochs, &rng);
  task.times.source_train_s = SecondsSince(t0);
  Calibrate(&task, src.second);

  for (const tasfar::PdrUserData& user : users) {
    Target t;
    t.name = std::string("pdr/") + (user.profile.seen ? "seen" : "unseen") +
             std::to_string(user.profile.id);
    t.adapt_inputs = tasfar::PdrHarness::PoolTrajectories(user.adaptation)
                         .inputs;
    const Dataset test = tasfar::PdrHarness::PoolTrajectories(user.test);
    t.test_inputs = test.inputs;
    t.test_targets = test.targets;
    task.targets.push_back(std::move(t));
  }
  return task;
}

}  // namespace

double Task::ErrorOf(const Tensor& outputs, const Target& target) const {
  const Tensor pred =
      outputs.Map([this](double y) { return y * label_std + label_mean; });
  switch (metric) {
    case TaskMetric::kMse:
      return tasfar::metrics::Mse(pred, target.test_targets);
    case TaskMetric::kSte:
      return tasfar::metrics::Ste(pred, target.test_targets);
  }
  return 0.0;
}

double Task::Error(Sequential* model, const Target& target) const {
  return ErrorOf(tasfar::BatchedForward(model, target.test_inputs), target);
}

Task SetupTask(const std::string& name, uint64_t seed) {
  Task task;
  if (name == "housing") {
    task = SetupHousing(seed);
  } else if (name == "pdr") {
    task = SetupPdr(seed);
  } else {
    throw std::invalid_argument("unknown task " + name);
  }
  for (Target& t : task.targets) {
    t.source_error = task.Error(task.source.get(), t);
  }
  return task;
}

Tensor Tile(const Tensor& pool, size_t rows) {
  std::vector<size_t> shape = pool.shape();
  const size_t row = pool.size() / shape[0];
  shape[0] = rows;
  Tensor out(shape);
  for (size_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * row, pool.data() + (r % pool.dim(0)) * row,
                row * sizeof(double));
  }
  return out;
}

bool AllParamsFinite(Sequential* model) {
  for (Tensor* p : model->Params()) {
    if (!p->AllFinite()) return false;
  }
  return true;
}

bool ParamsByteEqual(Sequential* a, Sequential* b) {
  const std::vector<Tensor*> pa = a->Params();
  const std::vector<Tensor*> pb = b->Params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->shape() != pb[i]->shape()) return false;
    if (std::memcmp(pa[i]->data(), pb[i]->data(),
                    pa[i]->size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
