#ifndef TASFAR_TOOLS_ANALYZE_ENGINE_H_
#define TASFAR_TOOLS_ANALYZE_ENGINE_H_

#include <string>
#include <vector>

#include "facts.h"

namespace tasfar::analyze {

struct AnalyzeOptions {
  /// Repo root; the scan roots (ScanRoots() in rules.h) and `docs/` are
  /// resolved under it.
  std::string repo_root;
  /// Incremental-cache directory; empty disables the cache. The engine
  /// creates it on demand; entries are one serialized FileFacts per file,
  /// keyed by path and validated by content hash + schema version.
  std::string cache_dir;
};

struct AnalyzeResult {
  /// All findings (suppressed ones included), sorted by file/line/rule.
  std::vector<Finding> findings;
  /// Per-file facts for every scanned source file, sorted by path.
  std::vector<FileFacts> facts;
  int files_scanned = 0;
  int cache_hits = 0;
  int cache_misses = 0;
  int unsuppressed = 0;
  int suppressed = 0;
  bool io_error = false;
  std::string error;
};

/// Runs the whole-program analysis: scans every .h/.cc/.cpp file under the
/// scan roots in parallel on the global ThreadPool (per-file facts and
/// findings through the incremental cache), re-reads
/// docs/{OBSERVABILITY,TESTING,MEMORY}.md fresh, joins the facts into the
/// registry-consistency pass, runs the two cross-file syncs below, applies
/// TASFAR_ANALYZE_ALLOW suppressions, and bumps the tasfar.analyze.*
/// metrics. A missing scan root or registry doc is an I/O error.
AnalyzeResult AnalyzeRepo(const AnalyzeOptions& options);

/// Reads src/serve/protocol.h, src/uncertainty/estimator.h, and
/// docs/PROTOCOL.md under `repo_root` and runs CheckProtocolDocSync; a
/// missing file is itself a finding (the doc and the headers must ship
/// together).
std::vector<Finding> CheckProtocolDocSyncFiles(const std::string& repo_root);

/// Reads src/tensor/simd/kernels.h and every src/tensor/simd/kernels_*.cc
/// under `repo_root` and runs CheckSimdKernelTableSync; a missing header
/// or an empty backend set is itself a finding.
std::vector<Finding> CheckSimdKernelTableSyncFiles(
    const std::string& repo_root);

/// The docs the registry-consistency pass reads, relative to the root.
const std::vector<std::string>& RegistryDocs();

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_ENGINE_H_
