// PDR golden digest: a small fixed-seed TASFAR run on the Conv1d PDR model
// (source training -> calibration -> Adapt) whose serialized source and
// adapted weights must hash to digests recorded before the direct Conv1d
// kernels replaced the original loop nests. The housing golden test pins
// only Dense layers; this one pins the convolution path end to end.
//
// ctest runs this binary at TASFAR_NUM_THREADS=1, 2 and 8 (see
// tests/CMakeLists.txt), so the same digests also pin byte identity across
// thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/tasfar.h"
#include "data/pdr_sim.h"
#include "eval/pdr_harness.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace tasfar {
namespace {

/// Recorded digests (FNV-1a 64 of SerializeParams, which prints every
/// parameter as a hex float, so the hash covers every bit).
constexpr uint64_t kSourceDigest = 0x4b18bf2a0caf805aULL;
constexpr uint64_t kAdaptedDigest = 0x021d9569c1f7e979ULL;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(PdrGoldenTest, SourceAndAdaptedWeightsMatchRecordedDigests) {
  PdrSimConfig sim_cfg;
  sim_cfg.num_seen_users = 2;
  sim_cfg.num_unseen_users = 1;
  sim_cfg.source_steps_per_user = 60;
  sim_cfg.target_trajectories_unseen = 4;
  sim_cfg.steps_per_trajectory = 16;
  PdrSimulator sim(sim_cfg, /*seed=*/31);
  const Dataset source = sim.GenerateSourceDataset();
  const std::vector<PdrUserData> users = sim.GenerateTargetUsers();
  ASSERT_FALSE(users.empty());
  const Tensor target =
      PdrHarness::PoolTrajectories(users.back().adaptation).inputs;

  Rng rng(41);
  auto model = BuildPdrModel(sim_cfg.window_len, &rng);
  Adam opt(1e-3);
  Trainer trainer(model.get(), &opt,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  trainer.Fit(source.inputs, source.targets, tc, &rng);

  TasfarOptions options;
  options.mc_samples = 6;
  options.num_segments = 10;
  options.adaptation.train.epochs = 4;
  Tasfar tasfar(options);
  const SourceCalibration calib =
      tasfar.Calibrate(model.get(), source.inputs, source.targets);
  Rng adapt_rng(43);
  TasfarReport report = tasfar.Adapt(model.get(), calib, target, &adapt_rng);
  // The fixture must exercise the real fine-tune, not a degenerate skip.
  ASSERT_FALSE(report.skipped);
  ASSERT_FALSE(report.fell_back);
  ASSERT_FALSE(report.pseudo_labels.empty());

  const std::string source_weights = SerializeParams(model.get());
  const std::string adapted_weights =
      SerializeParams(report.target_model.get());
  ASSERT_NE(adapted_weights, source_weights);
  EXPECT_EQ(Hex(Fnv1a64(source_weights)), Hex(kSourceDigest));
  EXPECT_EQ(Hex(Fnv1a64(adapted_weights)), Hex(kAdaptedDigest));
}

}  // namespace
}  // namespace tasfar
