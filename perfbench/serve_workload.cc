// The serve-noisy workload: an in-process TASFAR Server on loopback serving
// the housing source model to three client connections. A light tenant
// sends 8-row Predicts open loop, first alone and then beside a heavy
// tenant sending 2,000-row Predicts closed loop, while a third connection
// takes one session at a time, back to back, through SubmitTargetData ->
// Adapt -> serving adapted -> Predict -> Close.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "tasks.h"
#include "traffic.h"
#include "uncertainty/mc_dropout.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using tasfar::serve::Client;
using tasfar::serve::ClientPrediction;
using tasfar::serve::ClientSessionInfo;
using tasfar::serve::Server;

// Rounds per untraced run, as in the adapt workloads: each deploys afresh
// from its own seed (new source model, server and thread-pool workers) and
// measures its share of the run.
constexpr size_t kRounds = 6;
constexpr uint32_t kLightRows = 8;
constexpr uint32_t kHeavyRows = 2000;
constexpr double kIdleShare = 0.25;
constexpr uint64_t kSessionSeed = 42;
constexpr double kAdaptTimeoutMs = 60000.0;

struct Deployment {
  std::unique_ptr<Task> task;
  std::unique_ptr<Server> server;
};

Deployment Deploy(uint64_t seed, RunResult* result) {
  Deployment d;
  d.task = std::make_unique<Task>(SetupTask("housing", seed));
  d.server = std::make_unique<Server>(d.task->source.get(),
                                      &d.task->calibration, d.task->options,
                                      tasfar::serve::ServerConfig{});
  const tasfar::Status s = d.server->Start();
  result->Check(s.ok(), "server start: " + s.ToString());
  return d;
}

// A response is well formed when it has one finite mean and std per row.
bool WellFormed(const tasfar::Result<ClientPrediction>& reply, size_t rows) {
  if (!reply.ok() || reply.value().predictions.size() != rows) return false;
  for (const tasfar::serve::WirePrediction& p : reply.value().predictions) {
    if (p.mean.empty() || p.mean.size() != p.std.size()) return false;
    for (size_t d = 0; d < p.mean.size(); ++d) {
      if (!std::isfinite(p.mean[d]) || !std::isfinite(p.std[d])) return false;
    }
  }
  return true;
}

tasfar::Tensor Means(const ClientPrediction& reply) {
  const size_t dims = reply.predictions.front().mean.size();
  tasfar::Tensor out({reply.predictions.size(), dims});
  for (size_t i = 0; i < reply.predictions.size(); ++i) {
    for (size_t d = 0; d < dims; ++d) {
      out.At(i, d) = reply.predictions[i].mean[d];
    }
  }
  return out;
}

tasfar::Tensor MeansOf(const std::vector<tasfar::McPrediction>& preds) {
  tasfar::Tensor out({preds.size(), preds.front().mean.size()});
  for (size_t i = 0; i < preds.size(); ++i) {
    for (size_t d = 0; d < preds[i].mean.size(); ++d) {
      out.At(i, d) = preds[i].mean[d];
    }
  }
  return out;
}

// Raw samples of a run, pooled over its rounds.
struct ServeSamples {
  std::vector<double> setup_s;
  std::vector<double> adapt_ms, adapt_ms_traced, error_ratios, heavy_rtt;
  std::vector<RequestSample> idle, busy;
  double rows_adapted = 0.0;
  double busy_wall_s = 0.0;
  size_t sessions = 0, sessions_adapted = 0;
  size_t heavy_sent = 0, heavy_ok = 0;
  size_t tenant_requests = 0, tenant_failed = 0;
};

// In-process references, built as a session builds them: the probe
// prediction after adapting shard 0, and the held-out error of the source
// model as a fresh session serves it.
struct References {
  std::vector<tasfar::McPrediction> probe;
  double source_error = 0.0;
};

References BuildReferences(const Task& task, const tasfar::Tensor& probe_rows,
                           uint64_t adapt_seed) {
  References ref;
  const Target& first = task.targets.front();
  {
    std::unique_ptr<tasfar::Sequential> model = task.source->CloneSequential();
    tasfar::Rng rng(adapt_seed);
    tasfar::TasfarReport report =
        tasfar::Tasfar(task.options)
            .Adapt(model.get(), task.calibration, first.adapt_inputs, &rng);
    tasfar::McDropoutPredictor predictor(report.target_model.get(),
                                         task.options.mc_samples, 64,
                                         kSessionSeed);
    ref.probe = predictor.Predict(probe_rows);
  }
  std::unique_ptr<tasfar::Sequential> model = task.source->CloneSequential();
  tasfar::McDropoutPredictor predictor(model.get(), task.options.mc_samples,
                                       64, kSessionSeed);
  ref.source_error =
      task.ErrorOf(MeansOf(predictor.Predict(first.test_inputs)), first);
  return ref;
}

// One round: phase 1 (light tenant alone), then phase 2 (light beside the
// heavy tenant and the adapt sessions). Each round's first pass over the
// shards is scored.
void ServeRound(const RunConfig& config, uint64_t round_seed, double round_s,
                const Task& task, uint16_t port, const References& ref,
                RunResult* result, ServeSamples* out) {
  const uint32_t cols =
      static_cast<uint32_t>(task.targets[0].adapt_inputs.dim(1));
  const Target& first = task.targets.front();
  const tasfar::Tensor light_rows = first.test_inputs.SliceRows(0, kLightRows);
  const tasfar::Tensor heavy_rows = Tile(first.adapt_inputs, kHeavyRows);

  Client light_client;
  Client heavy_client;
  Client tenant_client;
  for (Client* c : {&light_client, &heavy_client, &tenant_client}) {
    result->Check(c->Connect(port).ok(), "client connect");
  }
  result->Check(light_client.CreateSession("light", kSessionSeed, cols).ok(),
                "create light session");
  result->Check(heavy_client.CreateSession("heavy", kSessionSeed, cols).ok(),
                "create heavy session");
  if (!result->correct()) return;
  for (int i = 0; i < 3; ++i) {  // Warm-up.
    light_client.Predict("light", kLightRows, cols, light_rows.data());
  }

  const auto light_request = [&] {
    return WellFormed(
        light_client.Predict("light", kLightRows, cols, light_rows.data()),
        kLightRows);
  };
  {
    OpenLoop idle(kLightRateHz, light_request);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(round_s * kIdleShare));
    idle.Stop();
    for (const RequestSample& s : idle.Samples()) out->idle.push_back(s);
  }
  OpenLoop light(kLightRateHz, light_request);
  const double busy_s = round_s * (1.0 - kIdleShare);
  const Clock::time_point busy_start = Clock::now();
  std::atomic<bool> heavy_stop{false};
  // Joined on every exit from this scope, exception paths included.
  struct Joiner {
    std::atomic<bool>* stop;
    std::thread thread;
    ~Joiner() {
      stop->store(true);
      if (thread.joinable()) thread.join();
    }
  } heavy{&heavy_stop, std::thread([&] {
    while (!heavy_stop.load()) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = WellFormed(
          heavy_client.Predict("heavy", kHeavyRows, cols, heavy_rows.data()),
          kHeavyRows);
      out->heavy_rtt.push_back(MsBetween(t0, Clock::now()));
      ++out->heavy_sent;
      out->heavy_ok += ok ? 1 : 0;
    }
  })};

  // Every tenant request goes through `call`, which counts it and its
  // failure.
  const auto call = [&](bool ok, const std::string& what) {
    ++out->tenant_requests;
    if (!ok) ++out->tenant_failed;
    return result->Check(ok, what);
  };
  // As in the adapt workloads, the traced run takes each shard through two
  // sessions in a row, one traced and one not.
  const size_t calls = config.trace ? 2 : 1;
  const size_t first_pass = task.targets.size() * calls;
  for (size_t k = 0;; ++k) {
    const double elapsed = MsBetween(busy_start, Clock::now()) / 1000.0;
    if (k % calls == 0 && k >= first_pass && elapsed >= busy_s) break;
    const size_t shard = (k / calls) % task.targets.size();
    const Target& target = task.targets[shard];
    const std::string user = "tenant" + std::to_string(k);
    const uint32_t rows = static_cast<uint32_t>(target.adapt_inputs.dim(0));
    ++out->sessions;
    const bool traced = config.trace && k % 2 == (k / 2) % 2;
    tasfar::obs::SetTracingEnabled(traced);
    bool ok = call(tenant_client.CreateSession(user, kSessionSeed, cols).ok(),
                   user + ": create failed") &&
              call(tenant_client
                       .SubmitTargetData(user, rows, cols,
                                         target.adapt_inputs.data())
                       .ok(),
                   user + ": submit failed");
    const Clock::time_point t0 = Clock::now();
    ok = ok && call(tenant_client
                        .Adapt(user, tasfar::MixSeed(round_seed, 2000 + shard))
                        .ok(),
                    user + ": adapt request failed");
    bool serving_adapted = false;
    while (ok && MsBetween(t0, Clock::now()) < kAdaptTimeoutMs) {
      tasfar::Result<ClientSessionInfo> info = tenant_client.QuerySession(user);
      ok = call(info.ok(), user + ": query failed");
      if (!ok) break;
      if (info.value().serving_adapted) {
        serving_adapted = true;
        break;
      }
      if (info.value().state == tasfar::serve::SessionState::kDegraded) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double ms = MsBetween(t0, Clock::now());
    tasfar::obs::SetTracingEnabled(false);
    if (traced) tasfar::obs::ClearTraceEvents();
    if (serving_adapted) {
      (traced ? out->adapt_ms_traced : out->adapt_ms).push_back(ms);
      out->rows_adapted += rows;
      const tasfar::Result<ClientPrediction> probe =
          tenant_client.Predict(user, kLightRows, cols, light_rows.data());
      const tasfar::Result<ClientPrediction> test = tenant_client.Predict(
          user, static_cast<uint32_t>(target.test_inputs.dim(0)), cols,
          target.test_inputs.data());
      const bool probe_ok =
          call(WellFormed(probe, kLightRows), user + ": malformed probe reply");
      const bool test_ok = call(WellFormed(test, target.test_inputs.dim(0)),
                                user + ": malformed held-out reply");
      bool same = probe_ok;
      if (probe_ok && shard == 0) {
        for (size_t i = 0; i < ref.probe.size(); ++i) {
          same = same &&
                 probe.value().predictions[i].mean == ref.probe[i].mean &&
                 probe.value().predictions[i].std == ref.probe[i].std;
        }
        result->Check(same, user +
                                ": served predict differs from the in-process "
                                "reference");
      }
      if (probe_ok && test_ok && same) {
        ++out->sessions_adapted;
        if (k < first_pass && k % calls == 0) {
          const double err = task.ErrorOf(Means(test.value()), target);
          out->error_ratios.push_back(err / ref.source_error);
          std::printf("target %-18s error %.6g -> %.6g (%+.2f%%)\n",
                      target.name.c_str(), ref.source_error, err,
                      100.0 * (out->error_ratios.back() - 1.0));
        }
      }
    }
    call(tenant_client.CloseSession(user).ok(), user + ": close failed");
  }
  out->busy_wall_s += MsBetween(busy_start, Clock::now()) / 1000.0;
  heavy_stop.store(true);
  heavy.thread.join();
  light.Stop();
  for (const RequestSample& s : light.Samples()) out->busy.push_back(s);
}

}  // namespace

RunResult RunServeWorkload(const RunConfig& config) {
  RunResult result;
  tasfar::obs::SetTracingEnabled(false);
  const size_t rounds = config.trace ? 1 : kRounds;
  const double round_s = config.seconds / static_cast<double>(rounds);
  ServeSamples samples;
  Deployment dep;
  for (size_t round = 0; round < rounds; ++round) {
    if (dep.server) dep.server->Stop();
    dep = Deployment{};
    tasfar::SetNumThreads(tasfar::GetNumThreads());  // Fresh pool workers.
    const uint64_t round_seed = RoundSeed(config.seed, round);
    // A traced run traces its set-up too, which splits setup.* by step.
    tasfar::obs::SetTracingEnabled(config.trace);
    const Clock::time_point t0 = Clock::now();
    dep = Deploy(round_seed, &result);
    samples.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    tasfar::obs::SetTracingEnabled(false);
    tasfar::obs::ClearTraceEvents();
    CheckTargets(*dep.task, &result);
    if (!result.correct()) return result;
    const References ref = BuildReferences(
        *dep.task,
        dep.task->targets.front().test_inputs.SliceRows(0, kLightRows),
        tasfar::MixSeed(round_seed, 2000));
    ServeRound(config, round_seed, round_s, *dep.task, dep.server->port(), ref,
               &result, &samples);
    if (!result.correct()) return result;
  }
  dep.server->Stop();
  const Task& task = *dep.task;

  std::vector<double> idle_ms, busy_ms, busy_traced, busy_untraced, busy_rtt,
      idle_rtt, late;
  size_t light_ok = 0;
  for (const std::vector<RequestSample>* phase : {&samples.idle, &samples.busy}) {
    for (const RequestSample& s : *phase) {
      light_ok += s.ok ? 1 : 0;
      result.Check(s.ok, "light predict failed or malformed");
      late.push_back(s.late_ms);
    }
  }
  for (const RequestSample& s : samples.idle) {
    idle_ms.push_back(s.from_due_ms);
    idle_rtt.push_back(s.rtt_ms);
  }
  for (const RequestSample& s : samples.busy) {
    const double ms = s.ok ? s.from_due_ms : 1e9;
    busy_ms.push_back(ms);
    busy_rtt.push_back(s.rtt_ms);
    (s.traced ? busy_traced : busy_untraced).push_back(ms);
  }
  result.Check(samples.heavy_ok == samples.heavy_sent,
               "heavy predict failed or malformed");
  const size_t requests = samples.idle.size() + samples.busy.size() +
                          samples.heavy_sent + samples.tenant_requests;
  result.attempted += requests;

  if (!config.trace) {
    double adapt_total_ms = 0.0;
    for (double ms : samples.adapt_ms) adapt_total_ms += ms;
    result.Add("setup_s", Median(samples.setup_s), "s", samples.setup_s.size());
    result.Add("adapt_ms_p50", Median(samples.adapt_ms), "ms",
               samples.adapt_ms.size());
    result.Add("adapt_rows_per_s",
               samples.rows_adapted / (adapt_total_ms / 1000.0), "rows/s",
               samples.adapt_ms.size());
    result.Add("error_ratio", Mean(samples.error_ratios), "ratio",
               samples.error_ratios.size());
    result.Add("adapted_ratio",
               static_cast<double>(samples.sessions_adapted) /
                   static_cast<double>(samples.sessions),
               "ratio", samples.sessions);
    result.Add("idle_predict_ms_p50", Median(idle_ms), "ms", idle_ms.size());
    result.Add("predict_ms_p50", Median(busy_ms), "ms", busy_ms.size());
    result.Add("heavy_rows_per_s",
               static_cast<double>(samples.heavy_ok) * kHeavyRows /
                   samples.busy_wall_s,
               "rows/s", samples.heavy_sent);
    result.Add("ok_ratio",
               static_cast<double>(light_ok + samples.heavy_ok +
                                   samples.tenant_requests -
                                   samples.tenant_failed) /
                   static_cast<double>(requests),
               "ratio", requests);
    return result;
  }

  result.Add("serve.light_rtt_ms_p50", Median(busy_rtt), "ms", busy_rtt.size());
  result.Add("serve.light_rtt_ms_p99", Quantile(busy_rtt, 0.99), "ms",
             busy_rtt.size());
  result.Add("serve.predict_ms_p90", Quantile(busy_ms, 0.9), "ms",
             busy_ms.size());
  result.Add("serve.heavy_rtt_ms_p50", Median(samples.heavy_rtt), "ms",
             samples.heavy_rtt.size());
  result.Add("serve.generator_late_ms_max", Max(late), "ms", late.size());
  const size_t adapts = samples.adapt_ms.size() + samples.adapt_ms_traced.size();
  result.Add("obs.trace_overhead_adapt_pct",
             PairedOverheadPct(samples.adapt_ms_traced, samples.adapt_ms), "%",
             adapts);
  result.Add("obs.trace_overhead_predict_pct",
             OverheadPct(busy_traced, busy_untraced), "%", busy_ms.size());
  std::vector<const Target*> probe_targets = {&task.targets[0],
                                              &task.targets[1]};
  AddLayerMetrics(task, probe_targets, RoundSeed(config.seed, 0), &result);
  AddSetupMetrics({task.times}, &result);
  return result;
}

}  // namespace perfbench
