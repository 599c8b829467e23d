#include "probes.h"

#include <cctype>
#include <cmath>
#include <memory>

#include "core/adaptation_trainer.h"
#include "core/confidence_classifier.h"
#include "core/label_distribution_estimator.h"
#include "core/pseudo_label_generator.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "tensor/buffer.h"
#include "traffic.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using tasfar::McPrediction;
using tasfar::Sequential;
using tasfar::Tensor;

bool Finite(const McPrediction& p) {
  for (double v : p.mean) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : p.std) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool Finite(const tasfar::PseudoLabel& label) {
  if (!std::isfinite(label.credibility)) return false;
  for (double v : label.value) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

uint64_t CounterValue(const char* name) {
  return tasfar::obs::Registry::Get().GetCounter(name)->value();
}

// The stages of Tasfar::AdaptWithPredictions in its order, each inside a
// benchmark span. Returns the adapted model, or null when Adapt would have
// returned the source model (skipped or fell back).
std::unique_ptr<Sequential> RunStages(const Task& task, const Target& target,
                                      Sequential* model, uint64_t adapt_seed,
                                      StageReplay* out) {
  tasfar::obs::TraceSpan adapt_span("bench.core.adapt");
  const tasfar::SourceCalibration& calib = task.calibration;
  std::vector<McPrediction> preds;
  {
    tasfar::obs::TraceSpan span("bench.uncertainty.predict");
    preds = tasfar::MakeEstimator(model,
                                  tasfar::EstimatorConfigFromOptions(
                                      task.options))
                ->Predict(target.adapt_inputs);
  }
  tasfar::ConfidenceSplit split;
  {
    tasfar::obs::TraceSpan span("bench.core.partition");
    std::vector<size_t> valid;
    std::vector<double> uncertainties;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (!Finite(preds[i])) continue;
      valid.push_back(i);
      uncertainties.push_back(preds[i].ScalarUncertainty());
    }
    if (valid.empty()) return nullptr;
    split = tasfar::ConfidenceClassifier(calib.tau)
                .ClassifyUncertainties(uncertainties);
    for (size_t& i : split.confident) i = valid[i];
    for (size_t& i : split.uncertain) i = valid[i];
  }
  out->uncertain_ratio = static_cast<double>(split.uncertain.size()) /
                         static_cast<double>(preds.size());
  if (split.confident.empty() || split.uncertain.empty()) return nullptr;
  std::vector<McPrediction> confident_preds;
  std::vector<McPrediction> uncertain_preds;
  for (size_t i : split.confident) confident_preds.push_back(preds[i]);
  for (size_t i : split.uncertain) uncertain_preds.push_back(preds[i]);

  tasfar::LabelDistributionEstimator estimator(calib.qs_per_dim,
                                               task.options.error_model);
  std::optional<tasfar::DensityMap> map;
  {
    tasfar::obs::TraceSpan span("bench.core.density_map");
    std::vector<tasfar::GridSpec> axes = estimator.AutoAxes(
        confident_preds, task.options.grid_cell_size,
        task.options.grid_margin_sigmas);
    map.emplace(estimator.Estimate(confident_preds, axes));
    const double mass = map->TotalMass();
    if (!std::isfinite(mass) || mass <= 0.0) return nullptr;
  }
  std::vector<tasfar::PseudoLabel> labels;
  {
    tasfar::obs::TraceSpan span("bench.core.pseudo_label");
    labels = tasfar::PseudoLabelGenerator(&map.value(), &estimator, calib.tau)
                 .GenerateAll(uncertain_preds);
    size_t kept = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (!Finite(labels[i])) continue;
      if (kept != i) {
        labels[kept] = std::move(labels[i]);
        split.uncertain[kept] = split.uncertain[i];
      }
      ++kept;
    }
    labels.resize(kept);
    split.uncertain.resize(kept);
    if (kept == 0) return nullptr;
  }
  const Tensor uncertain_inputs =
      tasfar::GatherFirstDim(target.adapt_inputs, split.uncertain);
  const Tensor confident_inputs =
      tasfar::GatherFirstDim(target.adapt_inputs, split.confident);
  Tensor confident_targets(
      {split.confident.size(), calib.qs_per_dim.size()});
  for (size_t i = 0; i < confident_preds.size(); ++i) {
    for (size_t d = 0; d < confident_preds[i].mean.size(); ++d) {
      confident_targets.At(i, d) = confident_preds[i].mean[d];
    }
  }
  tasfar::Rng rng(adapt_seed);
  tasfar::AdaptationResult result;
  {
    tasfar::obs::TraceSpan span("bench.core.fine_tune");
    result = tasfar::AdaptationTrainer(task.options.adaptation)
                 .Run(*model, uncertain_inputs, labels, confident_inputs,
                      confident_targets, &rng);
  }
  out->epochs = result.history.size();
  if (result.diverged && !result.rolled_back) return nullptr;
  if (!AllParamsFinite(result.model.get())) return nullptr;
  return std::move(result.model);
}

}  // namespace

const std::vector<std::string>& LayerKinds() {
  static const std::vector<std::string> kKinds = {
      "dense", "conv1d", "relu", "flatten", "dropout"};
  return kKinds;
}

std::string LayerKind(const tasfar::Layer& layer) {
  const std::string name = layer.Name();
  std::string kind;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (!std::isalnum(static_cast<unsigned char>(c))) break;
    if (std::isupper(static_cast<unsigned char>(c)) && i > 0) kind += '_';
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

StageReplay ReplayStages(const Task& task, const Target& target,
                         uint64_t adapt_seed) {
  StageReplay out;
  // Reference: the library's own pipeline on the same predictions.
  std::unique_ptr<Sequential> ref_model = task.source->CloneSequential();
  std::vector<McPrediction> ref_preds =
      tasfar::MakeEstimator(ref_model.get(),
                            tasfar::EstimatorConfigFromOptions(task.options))
          ->Predict(target.adapt_inputs);
  tasfar::Rng ref_rng(adapt_seed);
  tasfar::TasfarReport ref = tasfar::Tasfar(task.options)
                                 .AdaptWithPredictions(
                                     ref_model.get(), task.calibration,
                                     target.adapt_inputs,
                                     std::move(ref_preds), &ref_rng);

  std::unique_ptr<Sequential> model = task.source->CloneSequential();
  const uint64_t chunks0 = CounterValue("tasfar.thread_pool.chunks");
  const uint64_t busy0 = CounterValue("tasfar.thread_pool.busy_us");
  const tasfar::TensorAllocStats alloc0 = tasfar::GetTensorAllocStats();
  tasfar::obs::ClearTraceEvents();
  std::unique_ptr<Sequential> adapted =
      RunStages(task, target, model.get(), adapt_seed, &out);
  const std::vector<Span> spans =
      SpansWithPrefix(tasfar::obs::SnapshotTraceEvents(), "bench.");
  const tasfar::TensorAllocStats alloc1 = tasfar::GetTensorAllocStats();
  out.pool_chunks = CounterValue("tasfar.thread_pool.chunks") - chunks0;
  out.pool_busy_us = CounterValue("tasfar.thread_pool.busy_us") - busy0;
  out.allocs = alloc1.alloc_count - alloc0.alloc_count;
  out.alloc_bytes = alloc1.alloc_bytes - alloc0.alloc_bytes;

  for (const Span& s : spans) {
    if (s.name == "bench.core.adapt") {
      out.total_ms += static_cast<double>(s.dur_us) / 1000.0;
      out.unattributed_ms += static_cast<double>(SelfTimeUs(s, spans)) / 1000.0;
    } else {
      out.self_ms[s.name] += static_cast<double>(SelfTimeUs(s, spans)) / 1000.0;
    }
  }
  const bool ref_adapted = !ref.skipped && !ref.fell_back;
  out.adapted = adapted != nullptr;
  out.byte_equal =
      out.adapted == ref_adapted &&
      ParamsByteEqual(adapted != nullptr ? adapted.get() : model.get(),
                      ref.target_model.get()) &&
      (!ref_adapted || out.epochs == ref.history.size());
  return out;
}

std::map<std::string, double> AllocsPerPredict(const Task& task,
                                               const Tensor& rows) {
  constexpr size_t kWarmup = 3;
  constexpr size_t kCalls = 5;
  const std::pair<const char*, tasfar::UncertaintyBackend> backends[] = {
      {"mc_dropout", tasfar::UncertaintyBackend::kMcDropout},
      {"deep_ensemble", tasfar::UncertaintyBackend::kDeepEnsemble},
      {"laplace", tasfar::UncertaintyBackend::kLastLayerLaplace}};
  std::map<std::string, double> out;
  for (const auto& [name, backend] : backends) {
    std::unique_ptr<Sequential> model = task.source->CloneSequential();
    tasfar::EstimatorConfig config =
        tasfar::EstimatorConfigFromOptions(task.options);
    config.backend = backend;
    std::unique_ptr<tasfar::UncertaintyEstimator> est =
        tasfar::MakeEstimator(model.get(), config);
    for (size_t i = 0; i < kWarmup; ++i) est->Predict(rows);
    const uint64_t before = tasfar::GetTensorAllocStats().alloc_count;
    {
      tasfar::obs::TraceSpan span("bench.uncertainty.steady_predict");
      for (size_t i = 0; i < kCalls; ++i) est->Predict(rows);
    }
    out[name] = static_cast<double>(tasfar::GetTensorAllocStats().alloc_count -
                                    before) /
                static_cast<double>(kCalls);
  }
  return out;
}

LayerTimes ProbeLayers(const Task& task, const Tensor& batch, size_t reps) {
  LayerTimes out;
  std::unique_ptr<Sequential> model = task.source->CloneSequential();
  const size_t n = model->NumLayers();
  std::vector<std::vector<double>> fwd(n);
  std::vector<std::vector<double>> bwd(n);
  for (size_t r = 0; r < reps; ++r) {
    tasfar::obs::TraceSpan span("bench.nn.layers");
    Tensor x = batch;
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      x = model->layer(i).Forward(x, /*training=*/true);
      fwd[i].push_back(MsBetween(t0, Clock::now()));
    }
    Tensor g = Tensor::Ones(x.shape());
    for (size_t i = n; i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      g = model->layer(i).Backward(g);
      bwd[i].push_back(MsBetween(t0, Clock::now()));
    }
  }
  for (const std::string& kind : LayerKinds()) {
    out.forward_ms[kind] = 0.0;
    out.backward_ms[kind] = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string kind = LayerKind(model->layer(i));
    out.forward_ms[kind] += Median(fwd[i]);
    out.backward_ms[kind] += Median(bwd[i]);
  }

  // One fine-tune step as AdaptationTrainer configures it: dropout off,
  // weighted MSE, momentum SGD.
  const tasfar::AdaptationTrainConfig& ac = task.options.adaptation;
  tasfar::Sgd sgd(ac.learning_rate, ac.sgd_momentum);
  std::vector<double> step_ms;
  std::vector<double> opt_ms;
  for (size_t r = 0; r < reps; ++r) {
    tasfar::obs::TraceSpan span("bench.nn.train_step");
    const Clock::time_point t0 = Clock::now();
    const Tensor pred =
        model->Forward(batch, ac.train.dropout_during_training);
    Tensor grad;
    tasfar::loss::Mse(pred, Tensor::Zeros(pred.shape()), &grad);
    model->ZeroGrads();
    model->Backward(grad);
    const Clock::time_point t1 = Clock::now();
    sgd.Step(model->Params(), model->Grads());
    const Clock::time_point t2 = Clock::now();
    step_ms.push_back(MsBetween(t0, t2));
    opt_ms.push_back(MsBetween(t1, t2));
  }
  out.train_step_ms = Median(step_ms);
  out.optimizer_step_ms = Median(opt_ms);

  // The three MatMul shapes a Dense layer issues per train step:
  // X·W forward, Xᵀ·G and G·Wᵀ backward.
  tasfar::Rng rng(0x6d6d);
  const size_t m = batch.dim(0);
  for (size_t i = 0; i < n; ++i) {
    if (LayerKind(model->layer(i)) != "dense") continue;
    const Tensor& w = *model->layer(i).Params()[0];
    const size_t k = w.dim(0);
    const size_t cols = w.dim(1);
    const std::vector<std::pair<std::vector<size_t>, std::vector<size_t>>>
        shapes = {{{m, k}, {k, cols}}, {{k, m}, {m, cols}}, {{m, cols}, {cols, k}}};
    for (const auto& [a_shape, b_shape] : shapes) {
      const Tensor a = Tensor::RandomNormal(a_shape, &rng);
      const Tensor b = Tensor::RandomNormal(b_shape, &rng);
      std::vector<double> ms;
      for (size_t r = 0; r < reps; ++r) {
        tasfar::obs::TraceSpan span("bench.tensor.matmul");
        const Clock::time_point t0 = Clock::now();
        const Tensor c = a.MatMul(b);
        ms.push_back(MsBetween(t0, Clock::now()));
      }
      out.matmul_ms += Median(ms);
      out.matmul_gflop += 2.0 * static_cast<double>(a_shape[0]) *
                          static_cast<double>(a_shape[1]) *
                          static_cast<double>(b_shape[1]) / 1e9;
    }
  }
  return out;
}

}  // namespace perfbench
