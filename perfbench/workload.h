// What a workload run is given and what it reports.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One reported number; `samples` is how many raw measurements it comes
/// from (1 for a single measurement or a count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
};

/// Outcome of one run: operations attempted, correctness checks failed,
/// and the metrics. A failed check marks the run incorrect.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty(); }
  /// Records a check; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics.push_back({name, value, unit, samples});
  }
};

/// The seed of one round of a run: each round sets up from its own.
uint64_t RoundSeed(uint64_t seed, size_t round);

struct Task;
struct Target;
struct SetupTimes;

/// Checks that no held-out row of a target is a row Adapt sees, and that
/// the source model's held-out error is finite and positive.
void CheckTargets(const Task& task, RunResult* result);

/// The traced run's per-layer metrics of `task`, measured by replaying
/// Adapt on `targets` and probing the model's layers (tracing on).
void AddLayerMetrics(const Task& task, const std::vector<const Target*>& targets,
                     uint64_t seed, RunResult* out);
/// setup.* per-layer metrics, summed over the tasks of one set-up.
void AddSetupMetrics(const std::vector<SetupTimes>& times, RunResult* out);
/// Traced versus untraced median, in percent of the untraced one.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced);
/// Median of traced[i] / untraced[i] - 1, in percent: for samples taken in
/// pairs of equal work.
double PairedOverheadPct(const std::vector<double>& traced,
                         const std::vector<double>& untraced);

/// An untraced run has `rounds` rounds. Each sets up afresh from its own
/// seed, with new thread-pool workers, and measures its share of the run;
/// samples are pooled. So one run averages over several source models and
/// placements of the pool's threads. A traced run has one round. A round
/// repeats a cycle of about two seconds: the light tenant alone, then Adapt
/// alone, then Adapt beside the light tenant; the Adapt figures come from
/// the second phase only.
RunResult RunAdaptWorkload(const RunConfig& config,
                           const std::string& task_name, size_t rounds);
RunResult RunServeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
