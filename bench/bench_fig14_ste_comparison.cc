// Reproduces Fig. 14: per-user STE reduction on the seen group for TASFAR
// vs the source-based (MMD, ADV) and source-free (AUGfree, Datafree)
// comparison schemes.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "util/stats.h"

namespace tasfar::bench {
namespace {

void Run() {
  PrintHeader("Figure 14",
              "STE reduction (%) per seen-group user, all schemes.");
  PdrHarness harness(PaperPdrConfig());
  harness.Prepare();
  auto schemes = MakeSchemes(PdrModelCutLayer());

  const std::vector<std::string> names = SchemeNames(schemes);
  std::vector<std::string> header = {"user"};
  header.insert(header.end(), names.begin(), names.end());
  TablePrinter table(header);
  CsvWriter csv;
  csv.SetHeader({"user", "scheme", "ste_reduction_pct"});
  std::vector<std::vector<double>> reductions(names.size());

  for (const PdrUserData& user : harness.users()) {
    if (!user.profile.seen) continue;
    PdrUserCache cache = harness.BuildUserCache(user);
    std::vector<double> row;
    PdrSchemeEval tasfar_eval = harness.EvaluateTasfar(cache);
    row.push_back(metrics::ReductionPercent(tasfar_eval.ste_adapt_before,
                                            tasfar_eval.ste_adapt_after));
    for (auto& scheme : schemes) {
      PdrSchemeEval eval = harness.EvaluateScheme(scheme.get(), cache);
      row.push_back(metrics::ReductionPercent(eval.ste_adapt_before,
                                              eval.ste_adapt_after));
    }
    table.AddRow("user " + std::to_string(user.profile.id), row, 1);
    for (size_t s = 0; s < row.size(); ++s) {
      reductions[s].push_back(row[s]);
      csv.AddRow({std::to_string(user.profile.id), names[s],
                  std::to_string(row[s])});
    }
  }
  std::vector<double> means;
  for (const auto& r : reductions) means.push_back(stats::Mean(r));
  table.AddRow("mean", means, 1);
  table.Print();
  WriteCsv("fig14_ste_comparison", csv);
  std::printf(
      "\n(MMD and ADV are source-based UDA: they use source data at "
      "adaptation time)\n"
      "Paper: TASFAR ~13.6%% mean reduction, comparable to MMD/ADV; "
      "AUGfree\nand Datafree are near zero. Reproduced: TASFAR mean %.1f%% "
      "vs MMD\n%.1f%% / ADV %.1f%%, AUGfree %.1f%% / Datafree %.1f%%, "
      "U-SFDA %.1f%% /\nUPL %.1f%% (uncertainty-driven self-training "
      "baselines).\n",
      means[0], means[1], means[2], means[3], means[4], means[5], means[6]);
}

}  // namespace
}  // namespace tasfar::bench

int main() { tasfar::bench::Run(); }
