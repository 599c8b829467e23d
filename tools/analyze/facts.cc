#include "facts.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "lexer.h"
#include "rules.h"

namespace tasfar::analyze {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parses "TASFAR_ANALYZE_ALLOW(rule): reason" out of a comment token.
/// Returns false when the comment has no ALLOW marker.
bool ParseAllow(const Token& comment, Suppression* out) {
  static const std::string kMarker = "TASFAR_ANALYZE_ALLOW(";
  const size_t at = comment.text.find(kMarker);
  if (at == std::string::npos) return false;
  const size_t rule_begin = at + kMarker.size();
  const size_t rule_end = comment.text.find(')', rule_begin);
  if (rule_end == std::string::npos) return false;
  out->line = comment.line;
  out->rule = Trim(comment.text.substr(rule_begin, rule_end - rule_begin));
  out->reason.clear();
  const size_t colon = comment.text.find(':', rule_end);
  if (colon != std::string::npos) {
    out->reason = Trim(comment.text.substr(colon + 1));
  }
  return true;
}

/// True when the code token at `i` is a call head: an identifier named
/// `name` directly followed by "(". Skips over a preceding "::"/"." /"->"
/// qualification transparently (the head match is on the last name).
bool IsCallHead(const std::vector<Token>& code, size_t i, const char* name) {
  return i + 1 < code.size() && IsIdent(code[i], name) &&
         IsPunct(code[i + 1], "(");
}

/// First string literal among the call's top-level arguments, or nullptr.
const Token* FirstTopLevelString(const std::vector<Token>& code, size_t open,
                                 size_t close) {
  int depth = 0;
  for (size_t i = open; i <= close && i < code.size(); ++i) {
    if (code[i].kind == TokKind::kPunct) {
      const std::string& p = code[i].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      continue;
    }
    if (depth == 1 && code[i].kind == TokKind::kString) return &code[i];
  }
  return nullptr;
}

/// Extracts metric/span/failpoint registrations from the code tokens.
void ExtractSymbols(const std::vector<Token>& code, FileFacts* facts) {
  for (size_t i = 0; i < code.size(); ++i) {
    // Metric registry: GetCounter/GetGauge/GetHistogram("exact.name", ...)
    // with a literal first argument registers an exact name. A computed
    // first argument (string concatenation) registers a dynamic prefix:
    // the first literal in the call that ends in '.' (e.g.
    // "tasfar.span." + name + ".ms" in src/obs/trace.h).
    const bool metric_head = IsCallHead(code, i, "GetCounter") ||
                             IsCallHead(code, i, "GetGauge") ||
                             IsCallHead(code, i, "GetHistogram");
    if (metric_head) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      const bool exact_name =
          open + 2 < code.size() && open + 2 <= close &&
          code[open + 1].kind == TokKind::kString &&
          (open + 2 == close || IsPunct(code[open + 2], ","));
      if (exact_name) {
        facts->metrics.push_back({code[open + 1].text, code[open + 1].line});
      } else if (const Token* lit = FirstTopLevelString(code, open, close)) {
        if (!lit->text.empty() && lit->text.back() == '.') {
          facts->metric_prefixes.push_back(lit->text);
        }
      }
      continue;
    }
    // Tensor guards register "tasfar.guard.<site>" dynamically; the site
    // string at the call site is the stable name, so record the full
    // metric here to keep the docs cross-check exact.
    if (IsCallHead(code, i, "CheckFinite") ||
        IsCallHead(code, i, "CheckFiniteValue")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->metrics.push_back(
            {"tasfar.guard." + lit->text, lit->line});
      }
      continue;
    }
    if (IsCallHead(code, i, "TASFAR_TRACE_SPAN")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->spans.push_back({lit->text, lit->line});
      }
      continue;
    }
    if (IsCallHead(code, i, "TASFAR_FAILPOINT")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->failpoints.push_back({lit->text, lit->line});
      }
      continue;
    }
    // Flight-recorder codes: the `enum class FlightCode` definition is the
    // registration site; each enumerator is documented (and cross-checked)
    // as `serve.flight.<snake_case>` in docs/OBSERVABILITY.md.
    if (IsIdent(code[i], "enum") && i + 2 < code.size() &&
        IsIdent(code[i + 1], "class") && IsIdent(code[i + 2], "FlightCode")) {
      size_t j = i + 3;
      while (j < code.size() && !IsPunct(code[j], "{")) ++j;
      const size_t close = MatchingClose(code, j);
      int depth = 0;
      for (size_t k = j; k <= close && k < code.size(); ++k) {
        if (code[k].kind == TokKind::kPunct) {
          const std::string& p = code[k].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
          continue;
        }
        if (depth != 1 || code[k].kind != TokKind::kIdent) continue;
        const std::string& id = code[k].text;
        if (id.size() < 2 || id[0] != 'k' ||
            !(id[1] >= 'A' && id[1] <= 'Z')) {
          continue;
        }
        std::string snake;
        for (size_t c = 1; c < id.size(); ++c) {
          if (id[c] >= 'A' && id[c] <= 'Z') {
            if (c > 1) snake += '_';
            snake += static_cast<char>(id[c] - 'A' + 'a');
          } else {
            snake += id[c];
          }
        }
        facts->flight_codes.push_back(
            {"serve.flight." + snake, code[k].line});
      }
      i = close;
      continue;
    }
  }
}

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '\t': *out += "\\t"; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

bool SplitEscaped(const std::string& line, std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) return false;
      const char e = line[++i];
      if (e == '\\') cur += '\\';
      else if (e == 't') cur += '\t';
      else if (e == 'n') cur += '\n';
      else return false;
    } else if (c == '\t') {
      fields->push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields->push_back(cur);
  return true;
}

}  // namespace

FileFacts AnalyzeSource(const std::string& repo_rel_path,
                        const std::string& source) {
  FileFacts facts;
  facts.path = repo_rel_path;
  facts.content_hash = HashContent(source);

  const std::vector<Token> tokens = Lex(source);
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kComment) continue;
    Suppression sup;
    if (ParseAllow(t, &sup)) facts.suppressions.push_back(sup);
    if (t.text.find("aliased:") != std::string::npos) {
      facts.aliased_ack_lines.push_back(t.line);
    }
  }

  const std::vector<Token> code = CodeTokens(tokens);
  if (ExtractsSymbols(repo_rel_path)) ExtractSymbols(code, &facts);
  CheckFile({repo_rel_path, source, code, facts.aliased_ack_lines},
            &facts.findings);
  return facts;
}

std::string SerializeFacts(const FileFacts& facts) {
  std::ostringstream out;
  out << "tasfar-analyze-facts\tv" << kFactsSchemaVersion << "\n";
  out << "path\t";
  {
    std::string esc;
    AppendEscaped(facts.path, &esc);
    out << esc << "\n";
  }
  out << "hash\t" << facts.content_hash << "\n";
  auto emit_refs = [&](const char* tag, const std::vector<NameRef>& refs) {
    for (const NameRef& r : refs) {
      std::string esc;
      AppendEscaped(r.name, &esc);
      out << tag << "\t" << r.line << "\t" << esc << "\n";
    }
  };
  emit_refs("metric", facts.metrics);
  for (const std::string& p : facts.metric_prefixes) {
    std::string esc;
    AppendEscaped(p, &esc);
    out << "metric_prefix\t" << esc << "\n";
  }
  emit_refs("span", facts.spans);
  emit_refs("failpoint", facts.failpoints);
  emit_refs("flight", facts.flight_codes);
  for (const Suppression& s : facts.suppressions) {
    std::string rule;
    std::string reason;
    AppendEscaped(s.rule, &rule);
    AppendEscaped(s.reason, &reason);
    out << "allow\t" << s.line << "\t" << rule << "\t" << reason << "\n";
  }
  for (int line : facts.aliased_ack_lines) {
    out << "aliased_ack\t" << line << "\n";
  }
  for (const Finding& f : facts.findings) {
    std::string rule;
    std::string msg;
    std::string reason;
    AppendEscaped(f.rule, &rule);
    AppendEscaped(f.message, &msg);
    AppendEscaped(f.suppress_reason, &reason);
    out << "finding\t" << f.line << "\t" << rule << "\t"
        << (f.suppressed ? 1 : 0) << "\t" << msg << "\t" << reason << "\n";
  }
  return out.str();
}

bool ParseFacts(const std::string& text, FileFacts* out) {
  *out = FileFacts{};
  std::istringstream in(text);
  std::string line;
  bool have_header = false;
  std::vector<std::string> f;
  while (std::getline(in, line)) {
    if (!SplitEscaped(line, &f) || f.empty()) return false;
    if (!have_header) {
      if (f.size() != 2 || f[0] != "tasfar-analyze-facts" ||
          f[1] != "v" + std::to_string(kFactsSchemaVersion)) {
        return false;
      }
      have_header = true;
      continue;
    }
    const std::string& tag = f[0];
    if (tag == "path" && f.size() == 2) {
      out->path = f[1];
    } else if (tag == "hash" && f.size() == 2) {
      out->content_hash = std::strtoull(f[1].c_str(), nullptr, 10);
    } else if (tag == "metric" && f.size() == 3) {
      out->metrics.push_back({f[2], std::atoi(f[1].c_str())});
    } else if (tag == "metric_prefix" && f.size() == 2) {
      out->metric_prefixes.push_back(f[1]);
    } else if (tag == "span" && f.size() == 3) {
      out->spans.push_back({f[2], std::atoi(f[1].c_str())});
    } else if (tag == "failpoint" && f.size() == 3) {
      out->failpoints.push_back({f[2], std::atoi(f[1].c_str())});
    } else if (tag == "flight" && f.size() == 3) {
      out->flight_codes.push_back({f[2], std::atoi(f[1].c_str())});
    } else if (tag == "allow" && f.size() == 4) {
      out->suppressions.push_back({std::atoi(f[1].c_str()), f[2], f[3]});
    } else if (tag == "aliased_ack" && f.size() == 2) {
      out->aliased_ack_lines.push_back(std::atoi(f[1].c_str()));
    } else if (tag == "finding" && f.size() == 6) {
      Finding fd;
      fd.file = out->path;
      fd.line = std::atoi(f[1].c_str());
      fd.rule = f[2];
      fd.suppressed = f[3] == "1";
      fd.message = f[4];
      fd.suppress_reason = f[5];
      out->findings.push_back(fd);
    } else {
      return false;
    }
  }
  return have_header;
}

}  // namespace tasfar::analyze
