#include "engine.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lexer.h"
#include "obs/metrics.h"
#include "rules.h"
#include "util/thread_pool.h"

namespace tasfar::analyze {

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Cache entry file for a repo-relative source path, flat in the cache
/// directory. '%' and '/' are percent-encoded, which is injective: two
/// distinct paths (say `src/a_b.cc` and `src/a/b.cc`) never share an
/// entry, so no two scan workers write one file.
fs::path CacheEntry(const std::string& cache_dir,
                    const std::string& rel_path) {
  std::string name;
  for (char c : rel_path) {
    if (c == '%') {
      name += "%25";
    } else if (c == '/') {
      name += "%2F";
    } else {
      name += c;
    }
  }
  return fs::path(cache_dir) / (name + ".facts");
}

/// Sorted repo-relative paths of every .h/.cc/.cpp file under the scan
/// roots, skipping `build*` and `.*` directories.
std::vector<std::string> DiscoverSources(const fs::path& root,
                                         std::string* error) {
  std::vector<std::string> rel;
  for (const std::string& scan_root : ScanRoots()) {
    const fs::path dir = root / scan_root;
    if (!fs::is_directory(dir)) {
      *error = "analyze root is not a directory: " + dir.string();
      return rel;
    }
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (it->is_directory()) {
        if (name.rfind("build", 0) == 0 || name.rfind('.', 0) == 0) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      rel.push_back(fs::relative(it->path(), root).generic_string());
    }
    if (ec) {
      *error = "cannot walk " + dir.string() + ": " + ec.message();
      return rel;
    }
  }
  std::sort(rel.begin(), rel.end());
  return rel;
}

/// A finding about a whole file (line 0).
Finding FileScoped(const std::string& file, const char* rule,
                   const std::string& message) {
  Finding f;
  f.file = file;
  f.rule = rule;
  f.message = message;
  return f;
}

/// Marks findings covered by a TASFAR_ANALYZE_ALLOW on the same line or
/// the line above, for the rules that accept one. Registry findings
/// anchored in docs cannot be suppressed — the docs are the fix.
void ApplySuppressions(const std::vector<Suppression>& sups,
                       std::vector<Finding>* findings) {
  for (Finding& f : *findings) {
    if (!IsSuppressible(f.rule)) continue;
    for (const Suppression& s : sups) {
      if (s.rule != f.rule) continue;
      if (s.line == f.line || s.line == f.line - 1) {
        f.suppressed = true;
        f.suppress_reason = s.reason;
        break;
      }
    }
  }
}

}  // namespace

std::vector<Finding> CheckProtocolDocSyncFiles(const std::string& repo_root) {
  const fs::path root(repo_root);
  std::string header, estimator, doc;
  std::vector<Finding> findings;
  auto read = [&](const char* rel, std::string* out, const char* what) {
    if (!ReadFile(root / rel, out)) {
      findings.push_back(FileScoped(rel, "protocol-doc-sync",
                                    std::string("cannot read ") + what));
    }
  };
  read("src/serve/protocol.h", &header, "the protocol header");
  read("src/uncertainty/estimator.h", &estimator,
       "the estimator seam header");
  read("docs/PROTOCOL.md", &doc, "the protocol spec");
  if (!findings.empty()) return findings;
  return CheckProtocolDocSync(header, estimator, doc);
}

std::vector<Finding> CheckSimdKernelTableSyncFiles(
    const std::string& repo_root) {
  const fs::path simd_dir = fs::path(repo_root) / "src/tensor/simd";
  std::string header;
  if (!ReadFile(simd_dir / "kernels.h", &header)) {
    return {FileScoped("src/tensor/simd/kernels.h", "simd-discipline",
                       "cannot read the kernel registry header")};
  }
  std::vector<fs::path> paths;
  std::error_code ec;
  for (fs::directory_iterator it(simd_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("kernels_", 0) == 0 && it->path().extension() == ".cc") {
      paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, std::string>> backends;
  for (const fs::path& p : paths) {
    const std::string rel = fs::relative(p, repo_root).generic_string();
    std::string source;
    if (!ReadFile(p, &source)) {
      findings.push_back(
          FileScoped(rel, "simd-discipline", "cannot read backend source"));
      continue;
    }
    backends.emplace_back(rel, source);
  }
  if (backends.empty()) {
    return {FileScoped("src/tensor/simd", "simd-discipline",
                       "no kernels_*.cc backend translation units found")};
  }
  const std::vector<Finding> sync = CheckSimdKernelTableSync(header, backends);
  findings.insert(findings.end(), sync.begin(), sync.end());
  return findings;
}

const std::vector<std::string>& RegistryDocs() {
  static const std::vector<std::string> kDocs = {
      "docs/MEMORY.md",
      "docs/OBSERVABILITY.md",
      "docs/TESTING.md",
  };
  return kDocs;
}

AnalyzeResult AnalyzeRepo(const AnalyzeOptions& options) {
  AnalyzeResult result;
  const fs::path root(options.repo_root);

  std::string error;
  const std::vector<std::string> sources = DiscoverSources(root, &error);
  if (!error.empty()) {
    result.io_error = true;
    result.error = error;
    return result;
  }

  const bool use_cache = !options.cache_dir.empty();
  if (use_cache) {
    std::error_code ec;
    fs::create_directories(options.cache_dir, ec);
  }

  // Per-file scans run in parallel: each index touches only its own slot
  // and its own cache entry file.
  std::vector<FileFacts> facts(sources.size());
  std::vector<char> failed(sources.size(), 0);
  std::atomic<int> hits{0};
  std::atomic<int> misses{0};
  ParallelFor(0, sources.size(), 1, [&](size_t i) {
    std::string content;
    if (!ReadFile(root / sources[i], &content)) {
      failed[i] = 1;
      return;
    }
    const uint64_t hash = HashContent(content);
    if (use_cache) {
      std::string cached;
      FileFacts parsed;
      if (ReadFile(CacheEntry(options.cache_dir, sources[i]), &cached) &&
          ParseFacts(cached, &parsed) && parsed.content_hash == hash &&
          parsed.path == sources[i]) {
        facts[i] = std::move(parsed);
        hits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    facts[i] = AnalyzeSource(sources[i], content);
    misses.fetch_add(1, std::memory_order_relaxed);
    if (use_cache) {
      std::ofstream out(CacheEntry(options.cache_dir, sources[i]),
                        std::ios::binary | std::ios::trunc);
      out << SerializeFacts(facts[i]);
    }
  });
  for (size_t i = 0; i < sources.size(); ++i) {
    if (failed[i] != 0) {
      result.io_error = true;
      result.error = "cannot read " + sources[i];
      return result;
    }
  }
  result.files_scanned = static_cast<int>(sources.size());
  result.cache_hits = hits.load();
  result.cache_misses = misses.load();

  // Docs are read fresh every run: they are few, cheap to scan, and the
  // cross-check must see edits immediately.
  DocNames docs;
  for (const std::string& doc : RegistryDocs()) {
    std::string content;
    if (!ReadFile(root / doc, &content)) {
      result.io_error = true;
      result.error = "cannot read " + doc;
      return result;
    }
    ScanDocNames(doc, content, &docs);
  }

  std::vector<Finding> registry = CheckRegistryConsistency(facts, docs);

  std::vector<Finding> all;
  for (FileFacts& f : facts) {
    std::vector<Finding> file_findings = f.findings;  // cache holds raw
    ApplySuppressions(f.suppressions, &file_findings);
    all.insert(all.end(), file_findings.begin(), file_findings.end());
  }
  // Registry findings anchored in a src file can be suppressed there (a
  // doc-anchored finding has no comment grammar to carry the ALLOW).
  for (Finding& f : registry) {
    for (const FileFacts& ff : facts) {
      if (ff.path != f.file) continue;
      std::vector<Finding> one = {f};
      ApplySuppressions(ff.suppressions, &one);
      f = one[0];
      break;
    }
  }
  all.insert(all.end(), registry.begin(), registry.end());
  // The cross-file syncs read their files fresh, like the registry docs;
  // their findings accept no ALLOW.
  for (const std::vector<Finding>& sync :
       {CheckProtocolDocSyncFiles(options.repo_root),
        CheckSimdKernelTableSyncFiles(options.repo_root)}) {
    all.insert(all.end(), sync.begin(), sync.end());
  }

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++result.suppressed;
    } else {
      ++result.unsuppressed;
    }
  }
  result.findings = std::move(all);
  result.facts = std::move(facts);

  obs::Registry& reg = obs::Registry::Get();
  reg.GetCounter("tasfar.analyze.files")->Increment(
      static_cast<uint64_t>(result.files_scanned));
  reg.GetCounter("tasfar.analyze.findings")->Increment(
      static_cast<uint64_t>(result.unsuppressed));
  reg.GetCounter("tasfar.analyze.suppressed")->Increment(
      static_cast<uint64_t>(result.suppressed));
  reg.GetCounter("tasfar.analyze.cache_hits")->Increment(
      static_cast<uint64_t>(result.cache_hits));
  reg.GetCounter("tasfar.analyze.cache_misses")->Increment(
      static_cast<uint64_t>(result.cache_misses));
  return result;
}

}  // namespace tasfar::analyze
