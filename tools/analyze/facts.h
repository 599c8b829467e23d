#ifndef TASFAR_TOOLS_ANALYZE_FACTS_H_
#define TASFAR_TOOLS_ANALYZE_FACTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tasfar::analyze {

/// One rule violation at a source location. `suppressed` is set by the
/// engine when a `// TASFAR_ANALYZE_ALLOW(rule): reason` comment covers
/// the finding's line (same line or the line above).
struct Finding {
  std::string file;  ///< Repo-relative path.
  int line = 0;      ///< 1-based; 0 for file-scoped findings.
  std::string rule;  ///< Stable rule id, e.g. "into-aliasing".
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;

  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && rule == o.rule &&
           message == o.message && suppressed == o.suppressed &&
           suppress_reason == o.suppress_reason;
  }
};

/// A registered observable name (metric / trace span / failpoint site)
/// at its source line.
struct NameRef {
  std::string name;
  int line = 0;
};

/// One `// TASFAR_ANALYZE_ALLOW(rule): reason` comment.
struct Suppression {
  int line = 0;
  std::string rule;
  std::string reason;
};

/// Everything the whole-program passes need from one file, plus the
/// file's own per-file findings. This is the unit of the incremental
/// cache: facts are a pure function of (path, content), so a content-hash
/// hit can skip lexing and rule evaluation entirely.
struct FileFacts {
  std::string path;           ///< Repo-relative.
  uint64_t content_hash = 0;  ///< FNV-1a of the file bytes.

  std::vector<NameRef> metrics;     ///< Exact metric names registered.
  std::vector<std::string> metric_prefixes;  ///< Dynamic ("tasfar.guard.").
  std::vector<NameRef> spans;       ///< TASFAR_TRACE_SPAN literals.
  std::vector<NameRef> failpoints;  ///< TASFAR_FAILPOINT literals.
  /// Flight-recorder event codes from the `enum class FlightCode`
  /// definition, as their documented `serve.flight.<snake_case>` names.
  std::vector<NameRef> flight_codes;
  std::vector<Suppression> suppressions;
  std::vector<int> aliased_ack_lines;  ///< Lines with `// aliased:` acks.
  std::vector<Finding> findings;       ///< Per-file rule findings.
};

/// Lexes `source` and extracts symbols (src/ only), suppressions, and the
/// findings of every per-file rule that applies to `repo_rel_path`. The
/// whole-program registry-consistency pass runs later over the merged
/// facts (see rules.h).
FileFacts AnalyzeSource(const std::string& repo_rel_path,
                        const std::string& source);

/// Cache (de)serialization. The format is line-oriented, tab-separated,
/// with backslash escaping for tabs/newlines/backslashes; SerializeFacts
/// round-trips through ParseFacts exactly.
/// Returns false when `text` is malformed or was written by a different
/// schema version (kFactsSchemaVersion below).
std::string SerializeFacts(const FileFacts& facts);
bool ParseFacts(const std::string& text, FileFacts* out);

/// Bumped whenever FileFacts, the serialization, or any rule's semantics
/// change, so stale caches self-invalidate. Mirrored in the checked-in
/// tools/analyze/CACHE_SCHEMA file that CI uses as its cache key.
constexpr int kFactsSchemaVersion = 3;

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_FACTS_H_
