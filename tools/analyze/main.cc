// tasfar_analyze — the repo's invariant checker.
//
// Lexes every .h/.cc/.cpp file under src/ tests/ bench/ examples/ tools/
// (in parallel, through a content-hash incremental cache) and enforces the
// fifteen rules catalogued in docs/STATIC_ANALYSIS.md:
//   rng-discipline        randomness draws from an explicit tasfar::Rng&
//   thread-discipline     parallelism goes through util/thread_pool.h
//   simd-discipline       intrinsics only in src/tensor/simd/; every
//                         backend's F32Kernels table matches kernels.h
//   header-guard          headers guard with TASFAR_<PATH>_H_
//   no-iostream           src/ logs through util/logging.h
//   check-not-assert      src/ uses TASFAR_CHECK, never assert()
//   timing-discipline     src/ reads clocks only through src/obs/
//   memory-discipline     src/ takes no by-value Tensor, copies no storage
//   estimator-discipline  src/ builds estimators through MakeEstimator
//   parallel-capture      no shared writes from ParallelFor lambdas
//   into-aliasing         *Into destinations never silently alias inputs
//   workspace-escape      workspace tensors stay out of members/statics
//   seed-discipline       child seeds derive via MixSeed, not arithmetic
//   registry-consistency  metric/span/failpoint names match the docs
//   protocol-doc-sync     wire enums match docs/PROTOCOL.md
//
// Usage: tasfar_analyze [repo_root]
//          [--cache-dir=DIR | --no-cache] [--sarif=PATH | --no-sarif]
// Defaults: cache under <root>/bench_out/analyze_cache/v<schema>/, SARIF
// to <root>/bench_out/analyze.sarif. Exits 0 when clean, 1 on any
// unsuppressed finding, 2 on I/O errors (a missing scan root included).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "engine.h"
#include "sarif.h"
#include "util/logging.h"

namespace {

bool ConsumeFlag(const std::string& arg, const std::string& prefix,
                 std::string* value) {
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string repo_root = ".";
  std::string cache_dir;
  std::string sarif_path;
  bool no_cache = false;
  bool no_sarif = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--no-sarif") {
      no_sarif = true;
    } else if (ConsumeFlag(arg, "--cache-dir=", &value)) {
      cache_dir = value;
    } else if (ConsumeFlag(arg, "--sarif=", &value)) {
      sarif_path = value;
    } else if (!arg.empty() && arg[0] == '-') {
      TASFAR_LOG(kError) << "tasfar_analyze: unknown flag " << arg;
      return 2;
    } else {
      repo_root = arg;
    }
  }
  if (!no_cache && cache_dir.empty()) {
    cache_dir = (fs::path(repo_root) / "bench_out" / "analyze_cache" /
                 ("v" + std::to_string(tasfar::analyze::kFactsSchemaVersion)))
                    .string();
  }
  if (no_cache) cache_dir.clear();
  if (!no_sarif && sarif_path.empty()) {
    sarif_path =
        (fs::path(repo_root) / "bench_out" / "analyze.sarif").string();
  }

  tasfar::analyze::AnalyzeOptions options;
  options.repo_root = repo_root;
  options.cache_dir = cache_dir;
  const tasfar::analyze::AnalyzeResult result =
      tasfar::analyze::AnalyzeRepo(options);
  if (result.io_error) {
    TASFAR_LOG(kError) << "tasfar_analyze: " << result.error;
    return 2;
  }

  for (const tasfar::analyze::Finding& f : result.findings) {
    if (f.suppressed) continue;
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  if (!no_sarif && !sarif_path.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(sarif_path).parent_path(), ec);
    std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      TASFAR_LOG(kError) << "tasfar_analyze: cannot write " << sarif_path;
      return 2;
    }
    out << tasfar::analyze::ToSarif(result.findings);
  }

  TASFAR_LOG(kInfo) << "tasfar_analyze: " << result.files_scanned
                    << " files (" << result.cache_hits << " cached), "
                    << result.unsuppressed << " finding(s), "
                    << result.suppressed << " suppressed";
  return result.unsuppressed > 0 ? 1 : 0;
}
