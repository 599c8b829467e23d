#ifndef TASFAR_BENCH_BENCH_COMMON_H_
#define TASFAR_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/adv_uda.h"
#include "baselines/augfree_uda.h"
#include "baselines/datafree_uda.h"
#include "baselines/mmd_uda.h"
#include "baselines/uncertainty_sd_uda.h"
#include "baselines/upl_uda.h"
#include "eval/crowd_harness.h"
#include "eval/pdr_harness.h"
#include "eval/tabular_harness.h"
#include "util/csv.h"
#include "util/table_printer.h"

namespace tasfar::bench {

/// Paper-scale experiment configurations shared by all bench binaries so
/// every figure is produced from the same underlying experiment. Sizes are
/// scaled to run each binary in well under a minute on a laptop while
/// preserving the paper's structure (25 users, 3 scenes, spatial splits).
PdrHarnessConfig PaperPdrConfig();
CrowdHarnessConfig PaperCrowdConfig();
TabularHarnessConfig PaperHousingConfig();
TabularHarnessConfig PaperTaxiConfig();

/// The six comparison schemes configured for a model with the given
/// feature-cut layer (ownership transferred to the caller). Order:
/// MMD, ADV, AUGfree, Datafree, U-SFDA, UPL.
std::vector<std::unique_ptr<UdaScheme>> MakeSchemes(size_t cut_layer);

/// Row labels for a TASFAR-then-schemes comparison: "TASFAR" followed by
/// each scheme's UdaScheme::name(), in order.
std::vector<std::string> SchemeNames(
    const std::vector<std::unique_ptr<UdaScheme>>& schemes);

/// Shared implementation of Figs. 17/18: RTE-reduction distribution over
/// the test trajectories of one user group (seen or unseen), all schemes.
void RunRteReductionBench(bool seen_group, const std::string& figure_id);

/// Prints the bench banner: which paper artifact this reproduces.
void PrintHeader(const std::string& experiment_id,
                 const std::string& description);

/// Writes the raw series behind a figure to bench_out/<name>.csv (the
/// directory is created on demand); logs a warning on failure instead of
/// aborting the bench.
void WriteCsv(const std::string& name, const CsvWriter& csv);

}  // namespace tasfar::bench

#endif  // TASFAR_BENCH_BENCH_COMMON_H_
