// The adapt-pdr workload: adapt every target of a task with
// Tasfar::Adapt, over and over for the run's length. Each round repeats a
// cycle of three phases: a light tenant asking the source model for 8-row
// predictions alone, Adapt alone, and Adapt beside the light tenant.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "obs/trace.h"
#include "probes.h"
#include "stats.h"
#include "tasks.h"
#include "traffic.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr size_t kLightRows = 8;
constexpr size_t kHeavyRows = 2000;  // serve-noisy's heavy request.
// Shares of a cycle: the light tenant alone, then Adapt alone; the rest
// is Adapt beside the light tenant. Adapt alone gets the largest share:
// its median, adapt_ms_p50, is the figure that varies most from run to
// run on a shared host.
constexpr double kIdleShare = 0.2;
constexpr double kAloneShare = 0.45;
// A round runs the phases in cycles of this length, or longer where a
// call overruns its phase's share.
constexpr double kCycleSeconds = 2.0;
constexpr size_t kProbeReps = 15;

std::vector<std::string> RowKeys(const tasfar::Tensor& t) {
  std::vector<std::string> keys;
  const size_t row = t.size() / t.dim(0);
  for (size_t r = 0; r < t.dim(0); ++r) {
    keys.emplace_back(reinterpret_cast<const char*>(t.data() + r * row),
                      row * sizeof(double));
  }
  return keys;
}

bool AllFinite(const std::vector<tasfar::McPrediction>& preds) {
  for (const tasfar::McPrediction& p : preds) {
    for (double v : p.mean) {
      if (!std::isfinite(v)) return false;
    }
    for (double v : p.std) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace

void CheckTargets(const Task& task, RunResult* result) {
  for (const Target& target : task.targets) {
    const std::vector<std::string> adapt = RowKeys(target.adapt_inputs);
    const std::set<std::string> seen(adapt.begin(), adapt.end());
    bool disjoint = true;
    for (const std::string& key : RowKeys(target.test_inputs)) {
      disjoint = disjoint && seen.count(key) == 0;
    }
    result->Check(disjoint, target.name + ": held-out rows overlap adapt rows");
    result->Check(
        std::isfinite(target.source_error) && target.source_error > 0.0,
        target.name + ": source error not finite and positive");
    if (task.harness_source_error.has_value()) {
      result->Check(target.source_error == *task.harness_source_error,
                    target.name + ": source error differs from "
                                  "TabularHarness::Metric");
    }
  }
}

uint64_t RoundSeed(uint64_t seed, size_t round) {
  return tasfar::MixSeed(seed, 100 + round);
}

void AddLayerMetrics(const Task& task, const std::vector<const Target*>& targets,
                     uint64_t seed, RunResult* out) {
  tasfar::obs::SetTracingEnabled(true);
  std::map<std::string, double> stage_ms;
  double epochs = 0.0, uncertain = 0.0, total_ms = 0.0, unattributed_ms = 0.0;
  double chunks = 0.0, busy_ms = 0.0, allocs = 0.0, alloc_bytes = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const StageReplay r =
        ReplayStages(task, *targets[i], tasfar::MixSeed(seed, 5000 + i));
    out->attempted++;
    out->Check(r.byte_equal, targets[i]->name +
                                 ": stage replay differs from "
                                 "AdaptWithPredictions");
    for (const auto& [name, ms] : r.self_ms) stage_ms[name] += ms;
    epochs += static_cast<double>(r.epochs);
    uncertain += r.uncertain_ratio;
    total_ms += r.total_ms;
    unattributed_ms += r.unattributed_ms;
    chunks += static_cast<double>(r.pool_chunks);
    busy_ms += static_cast<double>(r.pool_busy_us) / 1000.0;
    allocs += static_cast<double>(r.allocs);
    alloc_bytes += static_cast<double>(r.alloc_bytes);
  }
  const double n = static_cast<double>(targets.size());
  const size_t ns = targets.size();
  out->Add("core.fine_tune_ms", stage_ms["bench.core.fine_tune"] / n, "ms", ns);
  out->Add("core.fine_tune_epochs", epochs / n, "count", ns);
  out->Add("core.uncertain_ratio", uncertain / n, "ratio", ns);
  out->Add("core.calibrate_ms", task.times.calibrate_fit_ms, "ms");
  out->Add("core.partition_ms", stage_ms["bench.core.partition"] / n, "ms", ns);
  out->Add("core.density_map_ms", stage_ms["bench.core.density_map"] / n, "ms",
           ns);
  out->Add("core.pseudo_label_ms", stage_ms["bench.core.pseudo_label"] / n,
           "ms", ns);
  out->Add("uncertainty.predict_ms",
           stage_ms["bench.uncertainty.predict"] / n, "ms", ns);
  out->Add("obs.unattributed_pct", 100.0 * unattributed_ms / total_ms, "%", ns);
  out->Add("thread_pool.chunks_per_adapt", chunks / n, "count", ns);
  out->Add("thread_pool.busy_ms_per_adapt", busy_ms / n, "ms", ns);
  out->Add("tensor.allocs_per_adapt", allocs / n, "count", ns);
  out->Add("tensor.alloc_bytes_per_adapt", alloc_bytes / n, "bytes", ns);

  // The light and heavy tenants' requests through an in-process estimator:
  // a served RTT minus this is wire time plus the wait behind the other
  // tenant.
  {
    std::unique_ptr<tasfar::Sequential> model = task.source->CloneSequential();
    std::unique_ptr<tasfar::UncertaintyEstimator> est = tasfar::MakeEstimator(
        model.get(), tasfar::EstimatorConfigFromOptions(task.options));
    const tasfar::Tensor light = Tile(targets[0]->test_inputs, kLightRows);
    const tasfar::Tensor heavy = Tile(targets[0]->adapt_inputs, kHeavyRows);
    for (const auto& [name, rows, reps] :
         {std::tuple{"serve.in_process_predict_ms", &light, 50},
          std::tuple{"serve.in_process_heavy_predict_ms", &heavy, 3}}) {
      std::vector<double> ms;
      for (int i = 0; i < reps; ++i) {
        tasfar::obs::TraceSpan span("bench.uncertainty.in_process_predict");
        const Clock::time_point t0 = Clock::now();
        est->Predict(*rows);
        ms.push_back(MsBetween(t0, Clock::now()));
      }
      out->Add(name, Median(ms), "ms", ms.size());
    }
  }

  const tasfar::Tensor& pool = targets[0]->adapt_inputs;
  const tasfar::Tensor predict_rows =
      pool.SliceRows(0, std::min<size_t>(64, pool.dim(0)));
  for (const auto& [backend, count] : AllocsPerPredict(task, predict_rows)) {
    out->Add("uncertainty." + backend + ".allocs_per_predict", count, "count",
             5);
  }
  const tasfar::Tensor batch = pool.SliceRows(
      0, std::min(task.options.adaptation.train.batch_size, pool.dim(0)));
  const LayerTimes lt = ProbeLayers(task, batch, kProbeReps);
  for (const std::string& kind : LayerKinds()) {
    out->Add("nn." + kind + ".forward_ms", lt.forward_ms.at(kind), "ms",
             kProbeReps);
    out->Add("nn." + kind + ".backward_ms", lt.backward_ms.at(kind), "ms",
             kProbeReps);
  }
  out->Add("nn.train_step_ms", lt.train_step_ms, "ms", kProbeReps);
  out->Add("nn.optimizer_step_ms", lt.optimizer_step_ms, "ms", kProbeReps);
  out->Add("tensor.matmul_ms", lt.matmul_ms, "ms", kProbeReps);
  out->Add("tensor.matmul_gflops",
           lt.matmul_ms > 0.0 ? lt.matmul_gflop / (lt.matmul_ms / 1000.0) : 0.0,
           "GFLOP/s", kProbeReps);
}

void AddSetupMetrics(const std::vector<SetupTimes>& times, RunResult* out) {
  SetupTimes sum;
  for (const SetupTimes& t : times) {
    sum.simulate_s += t.simulate_s;
    sum.source_train_s += t.source_train_s;
    sum.calibrate_s += t.calibrate_s;
  }
  out->Add("setup.simulate_s", sum.simulate_s, "s");
  out->Add("setup.source_train_s", sum.source_train_s, "s");
  out->Add("setup.calibrate_s", sum.calibrate_s, "s");
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0.0 ? 100.0 * (Median(traced) - base) / base : 0.0;
}

double PairedOverheadPct(const std::vector<double>& traced,
                         const std::vector<double>& untraced) {
  std::vector<double> ratios;
  for (size_t i = 0; i < std::min(traced.size(), untraced.size()); ++i) {
    if (untraced[i] > 0.0) ratios.push_back(traced[i] / untraced[i]);
  }
  return 100.0 * (Median(ratios) - 1.0);
}

namespace {

struct AdaptJob {
  const Task* task;
  const Target* target;
  uint64_t adapt_seed;
};

// What the Adapt calls of one phase yield.
struct AdaptPhase {
  std::vector<double> ms;         // Untraced calls.
  std::vector<double> ms_traced;  // Traced calls (traced run only).
  double rows = 0.0;
  double wall_s = 0.0;
  size_t calls = 0;
  size_t adapted = 0;  // Returned an adapted model.
  size_t ok = 0;       // Passed every check.
};

// Adapts jobs in turn from `*cursor`, for at least `seconds` and at least
// `min_jobs` jobs, and leaves `*cursor` at the next job. A traced run
// adapts each job twice in a row, once with tracing on and once off,
// alternating by job which goes first, so that the tracing overhead
// compares equal work. The first `scored` jobs are scored on their held-out rows:
// the double path is deterministic, so one score per target suffices.
AdaptPhase RunAdapts(const std::vector<AdaptJob>& jobs, bool trace,
                     double seconds, size_t min_jobs, size_t scored,
                     size_t* cursor, std::vector<double>* error_ratios,
                     RunResult* result) {
  AdaptPhase out;
  const size_t calls = trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  for (size_t k = 0;; ++k) {
    const double elapsed = MsBetween(start, Clock::now()) / 1000.0;
    if (k % calls == 0 && k >= min_jobs * calls && elapsed >= seconds) break;
    const size_t index = *cursor + k / calls;
    const AdaptJob& job = jobs[index % jobs.size()];
    const bool traced = trace && k % 2 == index % 2;
    tasfar::obs::SetTracingEnabled(traced);
    tasfar::Rng rng(job.adapt_seed);
    const Clock::time_point a0 = Clock::now();
    tasfar::TasfarReport report;
    {
      tasfar::obs::TraceSpan span("bench.adapt");
      report = tasfar::Tasfar(job.task->options)
                   .Adapt(job.task->source.get(), job.task->calibration,
                          job.target->adapt_inputs, &rng);
    }
    const double ms = MsBetween(a0, Clock::now());
    tasfar::obs::SetTracingEnabled(false);
    if (traced) tasfar::obs::ClearTraceEvents();
    (traced ? out.ms_traced : out.ms).push_back(ms);
    out.rows += static_cast<double>(job.target->adapt_inputs.dim(0));
    ++out.calls;
    ++result->attempted;
    const bool finite = result->Check(
        report.target_model != nullptr &&
            AllParamsFinite(report.target_model.get()),
        job.target->name + ": adapted model has non-finite parameters");
    if (finite && !report.skipped && !report.fell_back) ++out.adapted;
    bool ok = finite;
    if (k / calls < scored && k % calls == 0 && finite) {
      const double err =
          job.task->Error(report.target_model.get(), *job.target);
      ok = result->Check(std::isfinite(err),
                         job.target->name + ": error not finite");
      error_ratios->push_back(err / job.target->source_error);
      std::printf("target %-18s error %.6g -> %.6g (%+.2f%%)%s\n",
                  job.target->name.c_str(), job.target->source_error, err,
                  100.0 * (error_ratios->back() - 1.0),
                  report.skipped ? " skipped" : "");
    }
    out.ok += ok ? 1 : 0;
  }
  out.wall_s = MsBetween(start, Clock::now()) / 1000.0;
  *cursor += out.calls / calls;
  return out;
}

// Appends `from`'s samples and counts to `to`.
void Pool(const AdaptPhase& from, AdaptPhase* to) {
  to->ms.insert(to->ms.end(), from.ms.begin(), from.ms.end());
  to->ms_traced.insert(to->ms_traced.end(), from.ms_traced.begin(),
                       from.ms_traced.end());
  to->rows += from.rows;
  to->wall_s += from.wall_s;
  to->calls += from.calls;
  to->adapted += from.adapted;
  to->ok += from.ok;
}

}  // namespace

RunResult RunAdaptWorkload(const RunConfig& config,
                           const std::string& task_name,
                           size_t rounds_untraced) {
  RunResult result;
  const size_t rounds = config.trace ? 1 : rounds_untraced;
  const double round_s = config.seconds / static_cast<double>(rounds);

  std::vector<double> setup_s;
  std::vector<double> error_ratios;
  AdaptPhase alone;   // Adapt with nothing beside it.
  AdaptPhase beside;  // Adapt beside the light tenant.
  std::vector<RequestSample> idle, busy;
  Task task;
  for (size_t round = 0; round < rounds; ++round) {
    tasfar::SetNumThreads(tasfar::GetNumThreads());  // Fresh pool workers.
    const uint64_t round_seed = RoundSeed(config.seed, round);
    // A traced run traces its set-up too, which splits setup.* by step.
    tasfar::obs::SetTracingEnabled(config.trace);
    const Clock::time_point t0 = Clock::now();
    task = SetupTask(task_name, round_seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    tasfar::obs::SetTracingEnabled(false);
    tasfar::obs::ClearTraceEvents();
    CheckTargets(task, &result);

    std::vector<AdaptJob> jobs;
    for (const Target& target : task.targets) {
      jobs.push_back({&task, &target,
                      tasfar::MixSeed(round_seed, 1000 + jobs.size())});
    }

    // The light tenant: 8-row Predicts on the source model, through its
    // own estimator and model copy.
    std::unique_ptr<tasfar::Sequential> light_model =
        task.source->CloneSequential();
    std::unique_ptr<tasfar::UncertaintyEstimator> light_est =
        tasfar::MakeEstimator(
            light_model.get(), tasfar::EstimatorConfigFromOptions(task.options));
    const tasfar::Tensor light_rows =
        Tile(task.targets.front().test_inputs, kLightRows);
    // Warm-up, untimed: the fresh pool workers and the allocator's caches
    // fill here, not during the first timed calls.
    for (int i = 0; i < 3; ++i) light_est->Predict(light_rows);
    size_t warm_cursor = jobs.size() - 1;
    RunAdapts(jobs, /*trace=*/false, 0.0, 1, 0, &warm_cursor, &error_ratios,
              &result);
    const auto light_request = [&] {
      const std::vector<tasfar::McPrediction> p =
          light_est->Predict(light_rows);
      return p.size() == kLightRows && AllFinite(p);
    };

    // Cycles of the three phases until the round's time is up, so that
    // each phase samples the whole round rather than one stretch of it. A
    // phase ends after the call that crosses its share, so a cycle can
    // run longer than kCycleSeconds. Adapt alone walks the targets from
    // its own cursor; its first pass is scored.
    const double cycle_s = std::min(kCycleSeconds, round_s);
    const Clock::time_point round_start = Clock::now();
    size_t alone_cursor = 0;
    size_t beside_cursor = 0;
    while (MsBetween(round_start, Clock::now()) < 1000.0 * round_s ||
           alone_cursor < jobs.size()) {
      {
        OpenLoop light(kLightRateHz, light_request);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cycle_s * kIdleShare));
        light.Stop();
        for (const RequestSample& s : light.Samples()) idle.push_back(s);
      }
      const size_t unscored =
          jobs.size() - std::min(alone_cursor, jobs.size());
      Pool(RunAdapts(jobs, config.trace, cycle_s * kAloneShare, 1, unscored,
                     &alone_cursor, &error_ratios, &result),
           &alone);
      OpenLoop light(kLightRateHz, light_request);
      Pool(RunAdapts(jobs, config.trace,
                     cycle_s * (1.0 - kIdleShare - kAloneShare), 1, 0,
                     &beside_cursor, &error_ratios, &result),
           &beside);
      light.Stop();
      for (const RequestSample& s : light.Samples()) busy.push_back(s);
    }
  }

  std::vector<double> idle_ms, busy_ms, busy_ms_traced, busy_ms_untraced;
  std::vector<double> busy_rtt, late;
  size_t light_ok = 0;
  for (const std::vector<RequestSample>* phase : {&idle, &busy}) {
    for (const RequestSample& s : *phase) {
      ++result.attempted;
      light_ok += s.ok ? 1 : 0;
      result.Check(s.ok, "light predict returned a wrong or non-finite reply");
      late.push_back(s.late_ms);
    }
  }
  for (const RequestSample& s : idle) idle_ms.push_back(s.from_due_ms);
  for (const RequestSample& s : busy) {
    // A failed request counts as missing every latency limit.
    const double ms = s.ok ? s.from_due_ms : 1e9;
    busy_ms.push_back(ms);
    busy_rtt.push_back(s.rtt_ms);
    (s.traced ? busy_ms_traced : busy_ms_untraced).push_back(ms);
  }
  const size_t adapts = alone.calls + beside.calls;
  if (!config.trace) {
    double alone_total_ms = 0.0;
    for (double ms : alone.ms) alone_total_ms += ms;
    const size_t ops = adapts + idle.size() + busy.size();
    result.Add("setup_s", Median(setup_s), "s", setup_s.size());
    result.Add("adapt_ms_p50", Median(alone.ms), "ms", alone.ms.size());
    result.Add("adapt_rows_per_s", alone.rows / (alone_total_ms / 1000.0),
               "rows/s", alone.calls);
    result.Add("error_ratio", Mean(error_ratios), "ratio",
               error_ratios.size());
    result.Add("adapted_ratio",
               static_cast<double>(alone.adapted + beside.adapted) /
                   static_cast<double>(adapts),
               "ratio", adapts);
    result.Add("idle_predict_ms_p50", Median(idle_ms), "ms", idle_ms.size());
    result.Add("predict_ms_p50", Median(busy_ms), "ms", busy_ms.size());
    result.Add("heavy_rows_per_s", beside.rows / beside.wall_s, "rows/s",
               beside.calls);
    result.Add("ok_ratio",
               static_cast<double>(alone.ok + beside.ok + light_ok) /
                   static_cast<double>(ops),
               "ratio", ops);
    return result;
  }

  std::vector<double> beside_all = beside.ms;
  beside_all.insert(beside_all.end(), beside.ms_traced.begin(),
                    beside.ms_traced.end());
  std::vector<double> traced = alone.ms_traced;
  traced.insert(traced.end(), beside.ms_traced.begin(),
                beside.ms_traced.end());
  std::vector<double> untraced = alone.ms;
  untraced.insert(untraced.end(), beside.ms.begin(), beside.ms.end());
  result.Add("serve.light_rtt_ms_p50", Median(busy_rtt), "ms", busy_rtt.size());
  result.Add("serve.light_rtt_ms_p99", Quantile(busy_rtt, 0.99), "ms",
             busy_rtt.size());
  result.Add("serve.predict_ms_p90", Quantile(busy_ms, 0.9), "ms",
             busy_ms.size());
  result.Add("serve.heavy_rtt_ms_p50", Median(beside_all), "ms",
             beside_all.size());
  result.Add("serve.generator_late_ms_max", Max(late), "ms", late.size());
  result.Add("obs.trace_overhead_adapt_pct",
             PairedOverheadPct(traced, untraced), "%", adapts);
  result.Add("obs.trace_overhead_predict_pct",
             OverheadPct(busy_ms_traced, busy_ms_untraced), "%",
             busy_ms.size());
  std::vector<const Target*> probe_targets;
  for (const Target& t : task.targets) {
    if (probe_targets.size() < 2) probe_targets.push_back(&t);
  }
  AddLayerMetrics(task, probe_targets, RoundSeed(config.seed, 0), &result);
  AddSetupMetrics({task.times}, &result);
  return result;
}

}  // namespace perfbench
