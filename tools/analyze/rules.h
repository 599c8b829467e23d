#ifndef TASFAR_TOOLS_ANALYZE_RULES_H_
#define TASFAR_TOOLS_ANALYZE_RULES_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "facts.h"
#include "lexer.h"

namespace tasfar::analyze {

/// The fifteen invariant rules (docs/STATIC_ANALYSIS.md has the catalog
/// with rationale; each check's comment in rules.cc is the normative
/// statement). One table in rules.cc decides which rule applies under
/// which path and which findings a TASFAR_ANALYZE_ALLOW can suppress.

/// What a per-file check sees of one file.
struct SourceFile {
  const std::string& path;           ///< Repo-relative.
  const std::string& source;         ///< Raw bytes.
  const std::vector<Token>& code;    ///< Tokens with comments removed.
  const std::vector<int>& aliased_ack_lines;  ///< `// aliased:` lines.
};

/// Repo-relative directories the engine walks for .h/.cc/.cpp files
/// (skipping `build*` and `.*` directories); each must exist.
const std::vector<std::string>& ScanRoots();

/// Whether the file's metric/span/failpoint registrations feed
/// registry-consistency (only library code under src/ registers names).
bool ExtractsSymbols(const std::string& path);

/// Runs every per-file rule that applies to `file.path` and appends its
/// findings, ordered by line.
void CheckFile(const SourceFile& file, std::vector<Finding>* findings);

/// Whether a TASFAR_ANALYZE_ALLOW naming `rule` may suppress its findings.
bool IsSuppressible(const std::string& rule);

/// All rule ids, sorted, for SARIF metadata.
const std::vector<std::string>& AnalyzerRuleIds();

/// The include-guard macro required for a header at `repo_rel_path`:
/// TASFAR_<PATH>_H_ with the path uppercased and separators mapped to '_'.
/// Paths under src/ drop the src/ prefix (src/util/rng.h ->
/// TASFAR_UTIL_RNG_H_); all other roots keep it (bench/bench_common.h ->
/// TASFAR_BENCH_BENCH_COMMON_H_).
std::string ExpectedHeaderGuard(const std::string& repo_rel_path);

/// Inline-backtick tokens harvested from one documentation file, plus the
/// failpoint site names declared in docs/TESTING.md's "Injection sites"
/// table (first column).
struct DocNames {
  /// token -> first line it appears on, per file.
  std::map<std::string, std::pair<std::string, int>> tokens;
  /// failpoint site -> (file, line), from the injection-site table only.
  std::map<std::string, std::pair<std::string, int>> failpoint_sites;
};

/// Harvests `...`-quoted tokens from markdown `content`. Tokens are kept
/// only when name-like: nonempty, chars in [a-z0-9._], at least one '.'.
/// Tokens containing '*' or '<' are templates/wildcards and are skipped.
/// When `content` contains an "Injection sites" section, backticked names
/// in the first column of its table rows are additionally recorded as
/// declared failpoint sites.
void ScanDocNames(const std::string& doc_path, const std::string& content,
                  DocNames* out);

/// registry-consistency: every exact metric name, trace-span literal, and
/// failpoint site in src/ must appear in the scanned docs, and every
/// doc-declared `tasfar.*` name / failpoint-table site must exist in src/.
/// Dynamic registration prefixes (e.g. "tasfar.failpoint.") cover doc
/// tokens under them, except "tasfar.span." — span names are statically
/// known, so tasfar.span.*.ms doc tokens must match a real span.
std::vector<Finding> CheckRegistryConsistency(
    const std::vector<FileFacts>& facts, const DocNames& docs);

/// protocol-doc-sync: cross-checks the `MessageType` and `WireError`
/// enumerators in src/serve/protocol.h, plus the `UncertaintyBackend`
/// enumerators in src/uncertainty/estimator.h (kCreateSession's backend
/// byte), against the tables in docs/PROTOCOL.md, both ways — an
/// enumerator missing from the doc, a doc row naming no enumerator, or a
/// numeric value disagreement each yield a finding. Header enumerators are
/// read through the lexer (`kName = N` with N a decimal, hex or octal
/// literal; comments never count); doc entries are table rows whose first
/// cell is the backticked enumerator and whose second cell is its value.
std::vector<Finding> CheckProtocolDocSync(const std::string& header_source,
                                          const std::string& estimator_source,
                                          const std::string& doc_source);

/// simd-discipline, cross-file half: cross-checks the `F32Kernels`
/// dispatch-table fields declared in src/tensor/simd/kernels.h against the
/// designated initializers in every backend translation unit
/// (`kernels_<backend>.cc`), both ways — a struct field a backend never
/// sets, a backend setting a field the struct does not declare, or a
/// backend file containing no F32Kernels table at all each yield a
/// finding. `backend_sources` pairs each backend's repo-relative path with
/// its contents.
std::vector<Finding> CheckSimdKernelTableSync(
    const std::string& header_source,
    const std::vector<std::pair<std::string, std::string>>& backend_sources);

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_RULES_H_
