#include "rules.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace tasfar::analyze {

namespace {

Finding Make(const std::string& file, int line, const char* rule,
             std::string message) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  return f;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool IsAssignOp(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps.count(t.text) != 0;
}

/// Renders the argument tokens [begin, end) as one comparison key. Tokens
/// are concatenated without separators, so `passes [ s ]` and `passes[s]`
/// agree regardless of original spacing.
std::string ArgKey(const std::vector<Token>& code, size_t begin, size_t end) {
  std::string key;
  for (size_t i = begin; i < end; ++i) key += code[i].text;
  return key;
}

/// Splits the top-level (depth-1) comma-separated arguments of the call
/// whose "(" is at `open` and ")" at `close`. Returns [begin, end) token
/// ranges.
std::vector<std::pair<size_t, size_t>> SplitArgs(
    const std::vector<Token>& code, size_t open, size_t close) {
  std::vector<std::pair<size_t, size_t>> args;
  if (close <= open + 1) return args;
  int depth = 0;
  size_t arg_begin = open + 1;
  for (size_t i = open; i <= close; ++i) {
    if (code[i].kind != TokKind::kPunct) continue;
    const std::string& p = code[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") --depth;
    if ((depth == 1 && p == ",") || (depth == 0 && i == close)) {
      args.emplace_back(arg_begin, i);
      arg_begin = i + 1;
    }
  }
  return args;
}

/// --- parallel-capture ------------------------------------------------

struct Lambda {
  bool default_ref = false;
  std::set<std::string> ref_caps;
  std::set<std::string> val_caps;
  std::string loop_var;
  std::set<std::string> locals;
  size_t body_open = 0;
  size_t body_close = 0;
};

/// Parses the lambda whose capture-intro "[" is at `intro`. Returns false
/// when no body is found (not actually a lambda).
bool ParseLambda(const std::vector<Token>& code, size_t intro, Lambda* out) {
  const size_t cap_close = MatchingClose(code, intro);
  if (cap_close >= code.size()) return false;
  for (size_t k = intro + 1; k < cap_close;) {
    if (IsPunct(code[k], "&")) {
      if (k + 1 < cap_close && code[k + 1].kind == TokKind::kIdent) {
        out->ref_caps.insert(code[k + 1].text);
        k += 2;
      } else {
        out->default_ref = true;
        ++k;
      }
    } else if (code[k].kind == TokKind::kIdent) {
      out->val_caps.insert(code[k].text);
      ++k;
    } else {
      ++k;
    }
    // Skip an init-capture's expression up to the next top-level comma.
    if (k < cap_close && IsPunct(code[k], "=")) {
      int depth = 0;
      while (k < cap_close) {
        if (code[k].kind == TokKind::kPunct) {
          const std::string& p = code[k].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
          if (depth == 0 && p == ",") break;
        }
        ++k;
      }
    }
  }
  size_t p = cap_close + 1;
  if (p < code.size() && IsPunct(code[p], "(")) {
    const size_t params_close = MatchingClose(code, p);
    for (size_t q = p + 1; q < params_close && q < code.size(); ++q) {
      if (code[q].kind == TokKind::kIdent) {
        out->locals.insert(code[q].text);
        out->loop_var = code[q].text;
      }
    }
    p = params_close + 1;
  }
  while (p < code.size() && !IsPunct(code[p], "{")) ++p;
  if (p >= code.size()) return false;
  out->body_open = p;
  out->body_close = MatchingClose(code, p);
  // Body-local declarations: an identifier whose previous token reads as
  // the tail of a declarator (type name, ">", "*", "&", "&&"). Over-
  // collecting (e.g. `a & b`) only makes the rule more permissive.
  for (size_t k = out->body_open + 1; k < out->body_close; ++k) {
    if (code[k].kind != TokKind::kIdent) continue;
    const Token& prev = code[k - 1];
    if (prev.kind == TokKind::kIdent || IsPunct(prev, ">") ||
        IsPunct(prev, "*") || IsPunct(prev, "&") || IsPunct(prev, "&&")) {
      out->locals.insert(code[k].text);
    }
  }
  return true;
}

void CheckLambdaWrites(const std::string& path,
                       const std::vector<Token>& code, const Lambda& lam,
                       std::vector<Finding>* findings) {
  auto is_shared = [&](const std::string& name) {
    if (lam.locals.count(name) != 0) return false;
    if (lam.ref_caps.count(name) != 0) return true;
    return lam.default_ref && lam.val_caps.count(name) == 0;
  };
  for (size_t k = lam.body_open + 1; k < lam.body_close; ++k) {
    if (code[k].kind != TokKind::kIdent) continue;
    const Token& prev = code[k - 1];
    if (IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "::")) {
      continue;  // member/qualified access of something else
    }
    const std::string& name = code[k].text;
    if (!is_shared(name)) continue;
    // Prefix increment/decrement.
    if (IsPunct(prev, "++") || IsPunct(prev, "--")) {
      findings->push_back(Make(
          path, code[k].line, "parallel-capture",
          "ParallelFor body mutates by-reference captured `" + name +
              "` (" + prev.text + "); shared writes must be per-index"));
      continue;
    }
    if (k + 1 >= lam.body_close) continue;
    // Chained subscripts: X[a][b]...
    size_t after = k + 1;
    bool subscripted = false;
    bool uses_loop_var = false;
    while (after < lam.body_close && IsPunct(code[after], "[")) {
      subscripted = true;
      const size_t sub_close = MatchingClose(code, after);
      for (size_t m = after + 1; m < sub_close; ++m) {
        if (code[m].kind == TokKind::kIdent &&
            code[m].text == lam.loop_var) {
          uses_loop_var = true;
        }
      }
      after = sub_close + 1;
    }
    if (after >= lam.body_close) continue;
    const Token& nxt = code[after];
    if (subscripted) {
      if (IsAssignOp(nxt) && !uses_loop_var && !lam.loop_var.empty()) {
        findings->push_back(Make(
            path, code[k].line, "parallel-capture",
            "ParallelFor body writes `" + name +
                "[...]` without the loop index `" + lam.loop_var +
                "` in the subscript; writes must be disjoint per index"));
      }
    } else if (IsAssignOp(nxt) || IsPunct(nxt, "++") || IsPunct(nxt, "--")) {
      findings->push_back(Make(
          path, code[k].line, "parallel-capture",
          "ParallelFor body mutates by-reference captured `" + name +
              "` (" + nxt.text + "); shared writes must be per-index"));
    }
  }
}

/// --- workspace-escape ------------------------------------------------

bool IsMemberName(const std::string& name) {
  return !name.empty() && name.back() == '_';
}

/// Walks back from the NewTensor/ZeroTensor head over its qualifier chain
/// (`ws.`, `Workspace::ThreadLocal().`). Returns the index of the first
/// token *before* the chain, or 0.
size_t ChainStart(const std::vector<Token>& code, size_t head) {
  size_t b = head;
  while (b > 0) {
    const Token& t = code[b - 1];
    if (t.kind == TokKind::kIdent && t.text != "return") {
      --b;
      continue;
    }
    if (IsPunct(t, ".") || IsPunct(t, "->") || IsPunct(t, "::")) {
      --b;
      continue;
    }
    // Empty call in the chain, e.g. ThreadLocal().
    if (IsPunct(t, ")") && b >= 2 && IsPunct(code[b - 2], "(")) {
      b -= 2;
      continue;
    }
    break;
  }
  return b;
}

bool StatementHasStatic(const std::vector<Token>& code, size_t at) {
  for (size_t b = at; b > 0; --b) {
    const Token& t = code[b - 1];
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) break;
    if (IsIdent(t, "static")) return true;
  }
  return false;
}

/// --- seed-discipline -------------------------------------------------

bool IdentMentionsSeed(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.find("seed") != std::string::npos;
}

bool IsBinaryMixOp(const std::vector<Token>& code, size_t i) {
  if (code[i].kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {"+", "-",  "*", "^",
                                             "<<", ">>", "|"};
  if (kOps.count(code[i].text) == 0) return false;
  if (i == 0) return false;
  const Token& prev = code[i - 1];
  return prev.kind == TokKind::kIdent || prev.kind == TokKind::kNumber ||
         IsPunct(prev, ")") || IsPunct(prev, "]");
}

/// parallel-capture: a lambda passed to ParallelFor may not write a
/// by-reference captured variable through a plain assignment, increment,
/// or a subscript that does not involve the loop index. Writes through
/// members/methods (e.g. atomic .fetch_add, counter->Increment) and to
/// body-local variables are out of scope. The static face of the
/// disjoint-write rule in docs/THREADING.md.
void CheckParallelCapture(const SourceFile& file,
                          std::vector<Finding>* findings) {
  const std::vector<Token>& code = file.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!IsIdent(code[i], "ParallelFor") || !IsPunct(code[i + 1], "(")) {
      continue;
    }
    const size_t call_open = i + 1;
    const size_t call_close = MatchingClose(code, call_open);
    for (size_t j = call_open + 1; j < call_close; ++j) {
      if (!IsPunct(code[j], "[")) continue;
      if (!IsPunct(code[j - 1], "(") && !IsPunct(code[j - 1], ",")) continue;
      Lambda lam;
      if (!ParseLambda(code, j, &lam)) continue;
      CheckLambdaWrites(file.path, code, lam, findings);
      j = lam.body_close;  // don't rescan inside the body
    }
  }
}

/// into-aliasing: at a `*Into(...)` out-parameter kernel call site, the
/// destination (last argument, '&'/'*' stripped) may not textually equal
/// any input argument unless the line (or the line above) carries an
/// `// aliased:` acknowledgment. In-place use is legal for elementwise
/// kernels (docs/MEMORY.md §Kernels) but must be visibly acknowledged,
/// because for MatMulInto/TransposedInto/GatherRowsInto it is UB.
void CheckIntoAliasing(const SourceFile& file,
                       std::vector<Finding>* findings) {
  const std::vector<Token>& code = file.code;
  const std::vector<int>& aliased_ack_lines = file.aliased_ack_lines;
  auto acked = [&](int line) {
    return std::find(aliased_ack_lines.begin(), aliased_ack_lines.end(),
                     line) != aliased_ack_lines.end() ||
           std::find(aliased_ack_lines.begin(), aliased_ack_lines.end(),
                     line - 1) != aliased_ack_lines.end();
  };
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& head = code[i];
    if (head.kind != TokKind::kIdent || head.text.size() <= 4 ||
        !EndsWith(head.text, "Into") || !IsPunct(code[i + 1], "(")) {
      continue;
    }
    // A preceding identifier means this is a declaration/definition
    // (`void AddInto(...)`), not a call site.
    if (i > 0 && (code[i - 1].kind == TokKind::kIdent ||
                  IsPunct(code[i - 1], "*") || IsPunct(code[i - 1], "&"))) {
      continue;
    }
    const size_t open = i + 1;
    const size_t close = MatchingClose(code, open);
    const auto args = SplitArgs(code, open, close);
    if (args.size() < 2) continue;
    // Destination is the last argument, with address-of/deref stripped.
    size_t dest_begin = args.back().first;
    while (dest_begin < args.back().second &&
           (IsPunct(code[dest_begin], "&") || IsPunct(code[dest_begin], "*"))) {
      ++dest_begin;
    }
    const std::string dest = ArgKey(code, dest_begin, args.back().second);
    if (dest.empty()) continue;
    for (size_t a = 0; a + 1 < args.size(); ++a) {
      size_t in_begin = args[a].first;
      while (in_begin < args[a].second &&
             (IsPunct(code[in_begin], "&") || IsPunct(code[in_begin], "*"))) {
        ++in_begin;
      }
      if (ArgKey(code, in_begin, args[a].second) != dest) continue;
      if (!acked(head.line)) {
        findings->push_back(Make(
            file.path, head.line, "into-aliasing",
            "destination `" + dest + "` aliases an input of " + head.text +
                " without an `// aliased:` acknowledgment "
                "(docs/MEMORY.md, kernel aliasing rules)"));
      }
      break;
    }
  }
}

/// workspace-escape: a tensor acquired from Workspace NewTensor/ZeroTensor
/// may not be stored into a member (trailing-underscore identifier) or a
/// static, and may not be returned directly as the unassigned call result
/// (NewTensor contents are uninitialized). Returning a *named* workspace
/// tensor after filling it is the documented ownership handoff
/// (docs/MEMORY.md §Workspaces) and is allowed.
void CheckWorkspaceEscape(const SourceFile& file,
                          std::vector<Finding>* findings) {
  const std::string& path = file.path;
  const std::vector<Token>& code = file.code;
  std::set<std::string> ws_locals;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if ((!IsIdent(code[i], "NewTensor") && !IsIdent(code[i], "ZeroTensor")) ||
        !IsPunct(code[i + 1], "(")) {
      continue;
    }
    const size_t b = ChainStart(code, i);
    if (b == 0) continue;
    const Token& before = code[b - 1];
    if (IsIdent(before, "return")) {
      findings->push_back(Make(
          path, code[i].line, "workspace-escape",
          "returns the result of " + code[i].text +
              " directly; name the tensor, fill it, then hand it off "
              "(docs/MEMORY.md, workspace contract)"));
      continue;
    }
    if (IsPunct(before, "=") && b >= 2 &&
        code[b - 2].kind == TokKind::kIdent) {
      const std::string& target = code[b - 2].text;
      if (IsMemberName(target)) {
        findings->push_back(Make(
            path, code[i].line, "workspace-escape",
            "stores a workspace tensor into member `" + target +
                "`; members outlive the workspace scope and pin the "
                "per-thread pool (docs/MEMORY.md)"));
      } else if (StatementHasStatic(code, b - 2)) {
        findings->push_back(Make(
            path, code[i].line, "workspace-escape",
            "stores a workspace tensor into static `" + target +
                "`; statics outlive every workspace scope"));
      } else {
        ws_locals.insert(target);
      }
    }
  }
  // Indirect member store: `member_ = local;` where `local` came from the
  // workspace earlier in this file.
  for (size_t k = 0; k + 3 < code.size(); ++k) {
    if (code[k].kind == TokKind::kIdent && IsMemberName(code[k].text) &&
        IsPunct(code[k + 1], "=") && code[k + 2].kind == TokKind::kIdent &&
        ws_locals.count(code[k + 2].text) != 0 && IsPunct(code[k + 3], ";")) {
      findings->push_back(Make(
          path, code[k].line, "workspace-escape",
          "stores workspace tensor `" + code[k + 2].text +
              "` into member `" + code[k].text +
              "`; members outlive the workspace scope (docs/MEMORY.md)"));
    }
  }
}

/// seed-discipline: a seed expression handed to Rng construction, Fork,
/// MixSeed, or ReseedStochastic may not combine a seed-named value with
/// ad-hoc arithmetic (+ - * ^ << >> |) at the argument's top level —
/// derive child seeds through MixSeed streams instead.
void CheckSeedDiscipline(const SourceFile& file,
                         std::vector<Finding>* findings) {
  const std::vector<Token>& code = file.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& head = code[i];
    if (head.kind != TokKind::kIdent) continue;
    const bool seed_head = head.text == "Rng" || head.text == "Fork" ||
                           head.text == "MixSeed" ||
                           head.text == "ReseedStochastic";
    if (!seed_head) continue;
    size_t open = 0;
    if (IsPunct(code[i + 1], "(")) {
      open = i + 1;
    } else if (head.text == "Rng" && i + 2 < code.size() &&
               code[i + 1].kind == TokKind::kIdent &&
               IsPunct(code[i + 2], "(")) {
      open = i + 2;  // declaration form: Rng rng(expr);
    } else {
      continue;
    }
    const size_t close = MatchingClose(code, open);
    for (const auto& arg : SplitArgs(code, open, close)) {
      bool has_op = false;
      bool has_seed = false;
      int depth = 0;
      for (size_t k = arg.first; k < arg.second; ++k) {
        if (code[k].kind == TokKind::kPunct) {
          const std::string& p = code[k].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
        }
        if (depth != 0) continue;
        if (IsBinaryMixOp(code, k)) has_op = true;
        if (code[k].kind == TokKind::kIdent && IdentMentionsSeed(code[k].text)) {
          has_seed = true;
        }
      }
      if (has_op && has_seed) {
        findings->push_back(Make(
            file.path, head.line, "seed-discipline",
            "ad-hoc seed arithmetic in " + head.text +
                "(...); derive child seeds with MixSeed(seed, stream) so "
                "streams stay disjoint (docs/TESTING.md, rng discipline)"));
        break;  // one finding per call
      }
    }
  }
}

/// True when toks[i] is an identifier qualified as std::<name> (so the
/// finding anchors at the `std` token's line).
bool IsStdQualified(const std::vector<Token>& toks, size_t i) {
  return i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std");
}

/// True when toks[i] is preceded by a `::` qualifier of any kind.
bool IsQualified(const std::vector<Token>& toks, size_t i) {
  return i >= 1 && IsPunct(toks[i - 1], "::");
}

/// Matches the token sequence of an `#include <name>` directive starting
/// at the `#`: # include < name >. Returns true and leaves the directive
/// line in *line.
bool IsIncludeOf(const std::vector<Token>& toks, size_t i, const char* name,
                 int* line) {
  if (i + 4 >= toks.size()) return false;
  if (!IsPunct(toks[i], "#") || !IsIdent(toks[i + 1], "include") ||
      !IsPunct(toks[i + 2], "<") || !IsIdent(toks[i + 3], name) ||
      !IsPunct(toks[i + 4], ">")) {
    return false;
  }
  *line = toks[i].line;
  return true;
}

/// Whether the call argument list opening at toks[open] (a "(") is empty
/// or a single null-ish token — a wall-clock `time()` / `time(NULL)` /
/// `time(nullptr)` / `time(0)` call used as a seed.
bool IsNullishArgList(const std::vector<Token>& toks, size_t open) {
  const size_t close = MatchingClose(toks, open);
  if (close >= toks.size()) return false;
  if (close == open + 1) return true;
  if (close != open + 2) return false;
  const Token& arg = toks[open + 1];
  return IsIdent(arg, "NULL") || IsIdent(arg, "nullptr") ||
         (arg.kind == TokKind::kNumber && arg.text == "0");
}

/// rng-discipline: implicit-RNG primitives are banned. Everything
/// stochastic must draw from an explicitly passed tasfar::Rng& so runs are
/// reproducible.
void CheckRngDiscipline(const SourceFile& file,
                        std::vector<Finding>* findings) {
  const std::string& path = file.path;
  const std::vector<Token>& toks = file.code;
  static const std::set<std::string> kQualified = {
      "rand",        "srand",       "random_device",
      "mt19937",     "minstd_rand", "default_random_engine",
  };
  // Unqualified engine names still in scope after a using-declaration.
  static const std::set<std::string> kUnqualified = {"random_device",
                                                     "mt19937"};
  const std::string why = "use an explicitly passed tasfar::Rng& instead";
  const std::string wall_clock =
      "wall-clock time() seeding is banned: pass a fixed seed through "
      "tasfar::Rng";
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    const bool time_seed = name == "time" && i + 1 < toks.size() &&
                           IsPunct(toks[i + 1], "(") &&
                           IsNullishArgList(toks, i + 1);
    if (IsStdQualified(toks, i) && kQualified.count(name) != 0) {
      findings->push_back(Make(path, toks[i - 2].line, "rng-discipline",
                               "std::" + name + " is banned: " + why));
    } else if (IsQualified(toks, i)) {
      // Qualified by something other than std:: (or already reported).
      if (time_seed) {
        findings->push_back(
            Make(path, toks[i].line, "rng-discipline", wall_clock));
      }
    } else if (kUnqualified.count(name) != 0) {
      findings->push_back(Make(path, toks[i].line, "rng-discipline",
                               name + " is banned: " + why));
    } else if ((name == "rand" || name == "srand") && i + 1 < toks.size() &&
               IsPunct(toks[i + 1], "(")) {
      findings->push_back(Make(path, toks[i].line, "rng-discipline",
                               name + "() is banned: " + why));
    } else if (time_seed) {
      findings->push_back(
          Make(path, toks[i].line, "rng-discipline", wall_clock));
    }
  }
}

/// thread-discipline: raw std::thread / std::jthread / std::async are
/// banned. All parallelism flows through the ThreadPool / ParallelFor
/// substrate so the determinism contract of docs/THREADING.md (same seed +
/// any thread count ⇒ identical output) holds repo-wide; only the
/// substrate itself may spawn threads.
void CheckThreadDiscipline(const SourceFile& file,
                           std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.code;
  static const std::set<std::string> kBanned = {"thread", "jthread", "async"};
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || kBanned.count(toks[i].text) == 0 ||
        !IsStdQualified(toks, i)) {
      continue;
    }
    findings->push_back(Make(file.path, toks[i - 2].line, "thread-discipline",
                             "std::" + toks[i].text +
                                 " is banned: use ThreadPool / ParallelFor "
                                 "from util/thread_pool.h instead"));
  }
}

/// timing-discipline: ad-hoc timing is banned. Clock reads in library code
/// go through src/obs/ (obs::MonotonicMicros / TASFAR_TRACE_SPAN / the
/// metrics registry) so stage timings land in one observable place instead
/// of scattered std::chrono stopwatches.
void CheckTimingDiscipline(const SourceFile& file,
                           std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.code;
  for (size_t i = 0; i < toks.size(); ++i) {
    int line = 0;
    if (IsIncludeOf(toks, i, "chrono", &line)) {
      findings->push_back(
          Make(file.path, line, "timing-discipline",
               "<chrono> is banned in src/ outside src/obs/: time through "
               "obs::MonotonicMicros / TASFAR_TRACE_SPAN instead"));
      i += 4;
      continue;
    }
    if (!IsIdent(toks[i], "chrono")) continue;
    // `<chrono>` outside an include directive still reads as < chrono >;
    // skip the token after any '<' so the include form is reported once.
    if (i >= 1 && IsPunct(toks[i - 1], "<")) continue;
    findings->push_back(
        Make(file.path, toks[i].line, "timing-discipline",
             "std::chrono is banned in src/ outside src/obs/: time through "
             "obs::MonotonicMicros / TASFAR_TRACE_SPAN instead"));
  }
}

/// no-iostream: library code logs through util/logging.h.
void CheckNoIostream(const SourceFile& file, std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.code;
  for (size_t i = 0; i < toks.size(); ++i) {
    int line = 0;
    if (IsIncludeOf(toks, i, "iostream", &line)) {
      findings->push_back(Make(file.path, line, "no-iostream",
                               "<iostream> is banned in src/: use "
                               "util/logging.h (TASFAR_LOG) instead"));
      i += 4;
    }
  }
}

/// check-not-assert: library code checks with TASFAR_CHECK, which stays
/// active in every build mode; bare assert() and its headers are banned.
void CheckNoBareAssert(const SourceFile& file,
                       std::vector<Finding>* findings) {
  const std::string& path = file.path;
  const std::vector<Token>& toks = file.code;
  for (size_t i = 0; i < toks.size(); ++i) {
    // <cassert> / <assert.h> anywhere (they only ever appear in includes).
    if (IsPunct(toks[i], "<") && i + 2 < toks.size()) {
      if (IsIdent(toks[i + 1], "cassert") && IsPunct(toks[i + 2], ">")) {
        findings->push_back(Make(path, toks[i].line, "check-not-assert",
                                 "<cassert> is banned in src/: use "
                                 "util/check.h (TASFAR_CHECK) instead"));
        i += 2;
        continue;
      }
      if (i + 4 < toks.size() && IsIdent(toks[i + 1], "assert") &&
          IsPunct(toks[i + 2], ".") && IsIdent(toks[i + 3], "h") &&
          IsPunct(toks[i + 4], ">")) {
        findings->push_back(Make(path, toks[i].line, "check-not-assert",
                                 "<assert.h> is banned in src/: use "
                                 "util/check.h (TASFAR_CHECK) instead"));
        i += 4;
        continue;
      }
    }
    if (IsIdent(toks[i], "assert") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      findings->push_back(Make(path, toks[i].line, "check-not-assert",
                               "bare assert() is banned in src/: use "
                               "TASFAR_CHECK (active in all build modes) "
                               "instead"));
    }
  }
}

/// memory-discipline (docs/MEMORY.md), two bans:
///
/// 1. By-value `Tensor` parameters. Tensor copies are cheap O(1) shares,
///    but a by-value parameter detaches (copies the whole buffer) on the
///    callee's first write and hides that cost at every call site; APIs
///    must take `const Tensor&` (read) or `Tensor*` (write).
/// 2. `std::vector<double>(... .data() ...)` constructions — copying a
///    tensor's storage into a fresh vector. Share the Tensor
///    (copy-on-write) or fill a Workspace tensor instead. src/tensor/ is
///    exempt: the copy-on-write detach itself is implemented this way.
void CheckMemoryDiscipline(const SourceFile& file,
                           std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.code;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "Tensor")) continue;
    // Parameter position: the previous token (skipping an optional
    // `const`) must be '(' or ','.
    size_t before = i;
    if (before >= 1 && IsIdent(toks[before - 1], "const")) --before;
    if (before == 0 ||
        (!IsPunct(toks[before - 1], "(") && !IsPunct(toks[before - 1], ","))) {
      continue;
    }
    // By-value means the next token is the parameter name: an identifier,
    // followed by ',', ')' or '='.
    if (toks[i + 1].kind != TokKind::kIdent) continue;
    if (!IsPunct(toks[i + 2], ",") && !IsPunct(toks[i + 2], ")") &&
        !IsPunct(toks[i + 2], "=")) {
      continue;
    }
    findings->push_back(
        Make(file.path, toks[i].line, "memory-discipline",
             "by-value Tensor parameter: take const Tensor& (read) or "
             "Tensor* (write) — a by-value copy detaches on first write"));
  }
  if (StartsWith(file.path, "src/tensor/")) return;
  for (size_t i = 0; i + 6 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "std") || !IsPunct(toks[i + 1], "::") ||
        !IsIdent(toks[i + 2], "vector") || !IsPunct(toks[i + 3], "<") ||
        !IsIdent(toks[i + 4], "double") || !IsPunct(toks[i + 5], ">") ||
        !IsPunct(toks[i + 6], "(")) {
      continue;
    }
    const size_t open = i + 6;
    const size_t close = MatchingClose(toks, open);
    bool copies_data = false;
    for (size_t j = open + 1; j + 2 < close; ++j) {
      if (IsPunct(toks[j], ".") && IsIdent(toks[j + 1], "data") &&
          IsPunct(toks[j + 2], "(")) {
        copies_data = true;
        break;
      }
    }
    if (!copies_data) continue;
    findings->push_back(
        Make(file.path, toks[i].line, "memory-discipline",
             "copying tensor storage into a std::vector<double>: share the "
             "Tensor (copy-on-write) or fill a Workspace tensor instead"));
  }
}

/// simd-discipline, per-file half (docs/MEMORY.md §"Float32 compute
/// mode"): raw SIMD intrinsics, intrinsic headers and vector register
/// types appear only behind the F32Kernels dispatch tables in
/// src/tensor/simd/. Everything else calls through simd::Kernels() /
/// MatMulF32Into, so a new ISA is one new backend file, not a tree-wide
/// audit.
void CheckSimdDiscipline(const SourceFile& file,
                         std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.code;
  static const std::set<std::string> kIntrinsicHeaders = {
      "immintrin", "emmintrin", "xmmintrin", "smmintrin", "tmmintrin",
      "pmmintrin", "nmmintrin", "wmmintrin", "ammintrin", "x86intrin",
      "x86gprintrin", "arm_neon", "arm_sve", "arm_acle",
  };
  const std::string why =
      ": raw SIMD intrinsics are banned outside src/tensor/simd/ — add a "
      "kernel to the F32Kernels dispatch table instead";
  auto is_intrinsic_ident = [](const std::string& name) {
    // x86: _mm_/_mm256_/_mm512_ functions and __m128/__m256/__m512 types.
    if (name.compare(0, 3, "_mm") == 0) return true;
    if (name.size() >= 4 && name.compare(0, 3, "__m") == 0 &&
        std::isdigit(static_cast<unsigned char>(name[3])) != 0) {
      return true;
    }
    // NEON: float32x4_t-style vector types and v*q_f32-style intrinsics.
    if (name.compare(0, 8, "float32x") == 0 ||
        name.compare(0, 8, "float64x") == 0) {
      return true;
    }
    return name[0] == 'v' && (name.find("q_f32") != std::string::npos ||
                              name.find("q_f64") != std::string::npos);
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    // `#include <name.h>` reads as: # include < name . h >.
    if (IsPunct(toks[i], "<") && i + 4 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent &&
        kIntrinsicHeaders.count(toks[i + 1].text) != 0 &&
        IsPunct(toks[i + 2], ".") && IsIdent(toks[i + 3], "h") &&
        IsPunct(toks[i + 4], ">")) {
      findings->push_back(Make(file.path, toks[i].line, "simd-discipline",
                               "<" + toks[i + 1].text + ".h>" + why));
      i += 4;
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) continue;
    if (is_intrinsic_ident(toks[i].text)) {
      findings->push_back(
          Make(file.path, toks[i].line, "simd-discipline", toks[i].text + why));
    }
  }
}

/// estimator-discipline (docs/UNCERTAINTY.md): pipeline, serving, and eval
/// code goes through the UncertaintyEstimator seam — MakeEstimator(model,
/// EstimatorConfig) — so the backend choice stays a config value that
/// threads through TasfarOptions and the serve protocol. Naming a concrete
/// estimator class re-couples a layer to one backend; tests and benches
/// may construct concrete estimators to pin backend-specific contracts.
void CheckEstimatorDiscipline(const SourceFile& file,
                              std::vector<Finding>* findings) {
  static const std::set<std::string> kConcrete = {
      "McDropoutPredictor", "DeepEnsemble", "LastLayerLaplace"};
  for (const Token& tok : file.code) {
    if (tok.kind != TokKind::kIdent || kConcrete.count(tok.text) == 0) {
      continue;
    }
    findings->push_back(
        Make(file.path, tok.line, "estimator-discipline",
             tok.text + " is banned outside src/uncertainty/: construct "
                        "through MakeEstimator(model, EstimatorConfig) so "
                        "the uncertainty backend stays pluggable"));
  }
}

/// header-guard: the first preprocessor directive of every header is
/// `#ifndef TASFAR_<PATH>_H_` (see ExpectedHeaderGuard), and the guard is
/// #defined.
void CheckHeaderGuard(const SourceFile& file, std::vector<Finding>* findings) {
  const std::string& path = file.path;
  const std::string& code = file.source;
  if (!EndsWith(path, ".h")) return;
  const std::string expected = ExpectedHeaderGuard(path);
  std::istringstream lines(code);
  std::string line;
  int lineno = 0;
  int ifndef_line = 0;
  std::string guard;
  while (std::getline(lines, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    if (line.compare(start, 7, "#ifndef") == 0) {
      const std::vector<Token> rest = Lex(line.substr(start + 7));
      if (!rest.empty() && rest[0].kind == TokKind::kIdent) {
        guard = rest[0].text;
        ifndef_line = lineno;
      }
      break;
    }
    if (line.compare(start, 1, "#") == 0) break;  // Any other directive first.
  }
  if (guard.empty()) {
    findings->push_back(Make(path, 1, "header-guard",
                             "missing include guard; expected #ifndef " +
                                 expected));
    return;
  }
  if (guard != expected) {
    findings->push_back(Make(path, ifndef_line, "header-guard",
                             "include guard " + guard + " should be named " +
                                 expected));
    return;
  }
  if (code.find("#define " + expected) == std::string::npos) {
    findings->push_back(Make(path, ifndef_line, "header-guard",
                             "include guard " + expected +
                                 " is never #defined"));
  }
}

/// One row per rule: where it applies and whether an ALLOW can hide it.
/// This table is the only place that scopes rules to paths.
struct Rule {
  const char* id;
  /// Path prefix the rule applies under; "" applies under every root.
  const char* scope;
  /// Path prefix exempt from the rule, or nullptr.
  const char* exempt;
  /// Whether a TASFAR_ANALYZE_ALLOW naming the rule suppresses findings.
  bool suppressible;
  /// Per-file check; nullptr for rules that run only across files (the
  /// engine runs those, and simd-discipline's F32Kernels table half).
  void (*check)(const SourceFile& file, std::vector<Finding>* findings);
};

constexpr Rule kRules[] = {
    {"check-not-assert", "src/", nullptr, false, CheckNoBareAssert},
    {"estimator-discipline", "src/", "src/uncertainty/", false,
     CheckEstimatorDiscipline},
    {"header-guard", "", nullptr, false, CheckHeaderGuard},
    {"into-aliasing", "src/", nullptr, true, CheckIntoAliasing},
    {"memory-discipline", "src/", nullptr, false, CheckMemoryDiscipline},
    {"no-iostream", "src/", nullptr, false, CheckNoIostream},
    {"parallel-capture", "src/", nullptr, true, CheckParallelCapture},
    {"protocol-doc-sync", "", nullptr, false, nullptr},
    // Its scope is where symbol extraction runs (ExtractsSymbols).
    {"registry-consistency", "src/", nullptr, true, nullptr},
    {"rng-discipline", "", nullptr, false, CheckRngDiscipline},
    {"seed-discipline", "src/", "src/util/rng", true, CheckSeedDiscipline},
    {"simd-discipline", "", "src/tensor/simd/", false, CheckSimdDiscipline},
    {"thread-discipline", "", "src/util/thread_pool.", false,
     CheckThreadDiscipline},
    {"timing-discipline", "src/", "src/obs/", false, CheckTimingDiscipline},
    {"workspace-escape", "src/", "src/tensor/workspace", true,
     CheckWorkspaceEscape},
};

bool Applies(const Rule& rule, const std::string& path) {
  return StartsWith(path, rule.scope) &&
         (rule.exempt == nullptr || !StartsWith(path, rule.exempt));
}

const Rule* FindRule(const std::string& id) {
  for (const Rule& rule : kRules) {
    if (id == rule.id) return &rule;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& ScanRoots() {
  static const std::vector<std::string> kRoots = {"src", "tests", "bench",
                                                  "examples", "tools"};
  return kRoots;
}

bool ExtractsSymbols(const std::string& path) {
  return Applies(*FindRule("registry-consistency"), path);
}

void CheckFile(const SourceFile& file, std::vector<Finding>* findings) {
  const size_t first = findings->size();
  for (const Rule& rule : kRules) {
    if (rule.check != nullptr && Applies(rule, file.path)) {
      rule.check(file, findings);
    }
  }
  std::stable_sort(findings->begin() + static_cast<std::ptrdiff_t>(first),
                   findings->end(), [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
}

bool IsSuppressible(const std::string& rule) {
  const Rule* found = FindRule(rule);
  return found != nullptr && found->suppressible;
}

const std::vector<std::string>& AnalyzerRuleIds() {
  static const std::vector<std::string> kIds = [] {
    std::vector<std::string> ids;
    for (const Rule& rule : kRules) ids.emplace_back(rule.id);
    return ids;
  }();
  return kIds;
}

std::string ExpectedHeaderGuard(const std::string& repo_rel_path) {
  std::string path = repo_rel_path;
  if (StartsWith(path, "src/")) path = path.substr(4);
  std::string guard = "TASFAR_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

void ScanDocNames(const std::string& doc_path, const std::string& content,
                  DocNames* out) {
  auto name_like = [](const std::string& tok) {
    if (tok.empty()) return false;
    bool has_dot = false;
    for (char c : tok) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '.' || c == '_';
      if (!ok) return false;
      if (c == '.') has_dot = true;
    }
    return has_dot;
  };
  bool in_sites = false;
  int ln = 0;
  size_t pos = 0;
  while (pos <= content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++ln;
    if (!line.empty() && line[0] == '#') {
      in_sites = line.find("Injection sites") != std::string::npos;
    }
    const size_t first_bar = line.find('|');
    const size_t second_bar =
        first_bar == std::string::npos ? std::string::npos
                                       : line.find('|', first_bar + 1);
    size_t at = 0;
    while (true) {
      const size_t b = line.find('`', at);
      if (b == std::string::npos) break;
      const size_t e = line.find('`', b + 1);
      if (e == std::string::npos) break;
      const std::string tok = line.substr(b + 1, e - b - 1);
      at = e + 1;
      if (!name_like(tok)) continue;
      out->tokens.emplace(tok, std::make_pair(doc_path, ln));
      if (in_sites && first_bar != std::string::npos &&
          second_bar != std::string::npos && b > first_bar && b < second_bar) {
        out->failpoint_sites.emplace(tok, std::make_pair(doc_path, ln));
      }
    }
    if (eol == content.size()) break;
  }
}

std::vector<Finding> CheckRegistryConsistency(
    const std::vector<FileFacts>& facts, const DocNames& docs) {
  std::vector<Finding> findings;
  // First registration site per name, for stable finding locations.
  std::map<std::string, std::pair<std::string, int>> metrics;
  std::map<std::string, std::pair<std::string, int>> spans;
  std::map<std::string, std::pair<std::string, int>> failpoints;
  std::map<std::string, std::pair<std::string, int>> flight_codes;
  std::set<std::string> prefixes;
  for (const FileFacts& f : facts) {
    for (const NameRef& m : f.metrics) {
      metrics.emplace(m.name, std::make_pair(f.path, m.line));
    }
    for (const NameRef& s : f.spans) {
      spans.emplace(s.name, std::make_pair(f.path, s.line));
    }
    for (const NameRef& p : f.failpoints) {
      failpoints.emplace(p.name, std::make_pair(f.path, p.line));
    }
    for (const NameRef& c : f.flight_codes) {
      flight_codes.emplace(c.name, std::make_pair(f.path, c.line));
    }
    for (const std::string& p : f.metric_prefixes) prefixes.insert(p);
  }

  for (const auto& [name, loc] : metrics) {
    if (docs.tokens.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "metric `" + name +
                                  "` is registered in src but documented "
                                  "nowhere (docs/OBSERVABILITY.md)"));
    }
  }
  for (const auto& [name, loc] : spans) {
    const std::string doc_form = "tasfar.span." + name + ".ms";
    if (docs.tokens.count(doc_form) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "trace span `" + name + "` has no `" +
                                  doc_form +
                                  "` entry in docs/OBSERVABILITY.md"));
    }
  }
  for (const auto& [name, loc] : failpoints) {
    if (docs.failpoint_sites.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "failpoint site `" + name +
                                  "` is missing from the injection-sites "
                                  "table in docs/TESTING.md"));
    }
  }
  for (const auto& [name, loc] : flight_codes) {
    if (docs.tokens.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "flight-recorder code `" + name +
                                  "` has no entry in the flight-recorder "
                                  "table in docs/OBSERVABILITY.md"));
    }
  }
  // Reverse direction for flight codes: they are not tasfar.-prefixed, so
  // the generic documented-name sweep below never sees them.
  for (const auto& [tok, loc] : docs.tokens) {
    if (!StartsWith(tok, "serve.flight.")) continue;
    if (flight_codes.count(tok) != 0) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "documented flight-recorder code `" + tok +
                                "` matches no FlightCode enumerator"));
  }

  for (const auto& [tok, loc] : docs.tokens) {
    if (!StartsWith(tok, "tasfar.")) continue;
    if (metrics.count(tok) != 0) continue;
    // Failpoint site names may be dotted and tasfar.-prefixed (the
    // injection-sites table backticks them); they are registrations too.
    if (failpoints.count(tok) != 0) continue;
    // tasfar.span.<name>.ms entries must match a real span: span names are
    // statically known, so the dynamic "tasfar.span." registration prefix
    // does not cover them.
    static const std::string kSpanPrefix = "tasfar.span.";
    if (StartsWith(tok, kSpanPrefix) && EndsWith(tok, ".ms")) {
      const std::string span = tok.substr(
          kSpanPrefix.size(), tok.size() - kSpanPrefix.size() - 3);
      if (spans.count(span) != 0) continue;
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "documented span metric `" + tok +
                                  "` matches no TASFAR_TRACE_SPAN in src"));
      continue;
    }
    bool covered = false;
    for (const std::string& p : prefixes) {
      if (p != kSpanPrefix && StartsWith(tok, p)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "documented name `" + tok +
                                "` has no registration in src"));
  }
  for (const auto& [site, loc] : docs.failpoint_sites) {
    if (failpoints.count(site) != 0) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "injection-sites table lists `" + site +
                                "` but no TASFAR_FAILPOINT registers it"));
  }
  return findings;
}

namespace {

/// Extracts the `kName = N` enumerators of the named `enum class` block
/// from header source; an enumerator without a literal value maps to -1.
/// Returns false when the block is absent.
bool ParseEnumBlock(const std::string& source, const std::string& enum_name,
                    std::map<std::string, int>* out) {
  const std::vector<Token> code = CodeTokens(Lex(source));
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (!IsIdent(code[i], "enum") || !IsIdent(code[i + 1], "class") ||
        !IsIdent(code[i + 2], enum_name.c_str())) {
      continue;
    }
    size_t open = i + 3;
    while (open < code.size() && !IsPunct(code[open], "{")) ++open;
    const size_t close = MatchingClose(code, open);
    if (close >= code.size()) return false;
    for (size_t k = open + 1; k < close;) {
      size_t end = k;
      while (end < close && !IsPunct(code[end], ",")) ++end;
      if (code[k].kind == TokKind::kIdent && code[k].text[0] == 'k') {
        // The doc-sync contract requires every wire value to be spelled
        // out; anything but `= literal` is flagged through value -1.
        const bool literal = end == k + 3 && IsPunct(code[k + 1], "=") &&
                             code[k + 2].kind == TokKind::kNumber;
        // strtol with base 0 reads decimal, hex and octal literals.
        (*out)[code[k].text] =
            literal ? static_cast<int>(std::strtol(code[k + 2].text.c_str(),
                                                   nullptr, 0))
                    : -1;
      }
      k = end + 1;
    }
    return true;
  }
  return false;
}

/// Extracts `| \`kName\` | N | ...` table rows from markdown text.
std::map<std::string, int> ParseDocTableRows(const std::string& doc) {
  std::map<std::string, int> rows;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    size_t p = 0;
    while (p < line.size() && line[p] == ' ') ++p;
    if (p >= line.size() || line[p] != '|') continue;
    // First cell: `kName`.
    const size_t tick1 = line.find('`', p);
    if (tick1 == std::string::npos) continue;
    const size_t tick2 = line.find('`', tick1 + 1);
    if (tick2 == std::string::npos) continue;
    const std::string name = line.substr(tick1 + 1, tick2 - tick1 - 1);
    if (name.size() < 2 || name[0] != 'k' ||
        std::isupper(static_cast<unsigned char>(name[1])) == 0) {
      continue;
    }
    // Second cell: the wire value.
    const size_t bar = line.find('|', tick2);
    if (bar == std::string::npos) continue;
    size_t q = bar + 1;
    while (q < line.size() && line[q] == ' ') ++q;
    if (q >= line.size() ||
        std::isdigit(static_cast<unsigned char>(line[q])) == 0) {
      continue;
    }
    int value = 0;
    while (q < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[q])) != 0) {
      value = value * 10 + (line[q] - '0');
      ++q;
    }
    rows[name] = value;
  }
  return rows;
}

void SyncOneEnum(const std::string& enum_name,
                 const std::string& header_path,
                 const std::map<std::string, int>& header,
                 const std::map<std::string, int>& doc,
                 std::set<std::string>* doc_names_seen,
                 std::vector<Finding>* findings) {
  for (const auto& [name, value] : header) {
    if (value < 0) {
      findings->push_back(Make(header_path, 0, "protocol-doc-sync",
                               enum_name + "::" + name +
                                   " has no explicit wire value"));
      continue;
    }
    auto it = doc.find(name);
    if (it == doc.end()) {
      findings->push_back(Make("docs/PROTOCOL.md", 0, "protocol-doc-sync",
                               enum_name + "::" + name + " (= " +
                                   std::to_string(value) +
                                   ") is missing from the doc tables"));
      continue;
    }
    doc_names_seen->insert(name);
    if (it->second != value) {
      findings->push_back(
          Make("docs/PROTOCOL.md", 0, "protocol-doc-sync",
               enum_name + "::" + name + " is " + std::to_string(value) +
                   " in the header but " + std::to_string(it->second) +
                   " in the doc"));
    }
  }
}

/// Field names of `struct F32Kernels` in declaration order: plain pointer
/// members (`const char* name;`) and function-pointer members
/// (`void (*matmul)(...)`). Returns false when the struct is absent.
bool ParseF32KernelsFields(const std::string& header_source,
                           std::vector<std::string>* out) {
  const std::string stripped = StripCommentsAndStrings(header_source);
  const size_t start = stripped.find("struct F32Kernels");
  if (start == std::string::npos) return false;
  const size_t open = stripped.find('{', start);
  // The struct body holds only member declarations — no nested braces —
  // so the first '}' closes it.
  const size_t close = stripped.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  const std::vector<Token> toks =
      CodeTokens(Lex(stripped.substr(open + 1, close - open - 1)));
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    // Function pointer: ( * name )
    if (i >= 2 && IsPunct(toks[i - 1], "*") && IsPunct(toks[i - 2], "(") &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], ")")) {
      out->push_back(toks[i].text);
      continue;
    }
    // Plain pointer member: * name ;
    if (i >= 1 && IsPunct(toks[i - 1], "*") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], ";")) {
      out->push_back(toks[i].text);
    }
  }
  return !out->empty();
}

/// Designated-initializer field names (`.field =`) inside the first
/// F32Kernels brace initializer of a backend translation unit. Returns
/// false when the file contains no F32Kernels initializer.
bool ParseBackendTableFields(const std::string& source,
                             std::vector<std::string>* out) {
  const std::vector<Token> code = CodeTokens(Lex(source));
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(code[i], "F32Kernels")) continue;
    // Find the '=' ... '{' of `static const F32Kernels kTable = {`;
    // skip other mentions (function signatures, return types).
    size_t p = i + 1;
    while (p < code.size() &&
           (code[p].kind == TokKind::kIdent || IsPunct(code[p], "&"))) {
      ++p;
    }
    if (p >= code.size() || !IsPunct(code[p], "=")) continue;
    size_t open = p;
    while (open < code.size() && !IsPunct(code[open], "{")) ++open;
    size_t close = open;
    while (close < code.size() && !IsPunct(code[close], "}")) ++close;
    if (close >= code.size()) return false;
    for (size_t k = open + 1; k + 2 < close; ++k) {
      if (IsPunct(code[k], ".") && code[k + 1].kind == TokKind::kIdent &&
          IsPunct(code[k + 2], "=")) {
        out->push_back(code[k + 1].text);
      }
    }
    return true;
  }
  return false;
}

}  // namespace

std::vector<Finding> CheckProtocolDocSync(
    const std::string& header_source, const std::string& estimator_source,
    const std::string& doc_source) {
  std::vector<Finding> findings;
  std::map<std::string, int> message_types;
  std::map<std::string, int> wire_errors;
  std::map<std::string, int> backends;
  if (!ParseEnumBlock(header_source, "MessageType", &message_types)) {
    findings.push_back(Make("src/serve/protocol.h", 0, "protocol-doc-sync",
                            "enum class MessageType not found"));
  }
  if (!ParseEnumBlock(header_source, "WireError", &wire_errors)) {
    findings.push_back(Make("src/serve/protocol.h", 0, "protocol-doc-sync",
                            "enum class WireError not found"));
  }
  if (!ParseEnumBlock(estimator_source, "UncertaintyBackend", &backends)) {
    findings.push_back(Make("src/uncertainty/estimator.h", 0,
                            "protocol-doc-sync",
                            "enum class UncertaintyBackend not found"));
  }
  if (!findings.empty()) return findings;

  const std::map<std::string, int> doc_rows = ParseDocTableRows(doc_source);
  std::set<std::string> doc_names_seen;
  SyncOneEnum("MessageType", "src/serve/protocol.h", message_types, doc_rows,
              &doc_names_seen, &findings);
  SyncOneEnum("WireError", "src/serve/protocol.h", wire_errors, doc_rows,
              &doc_names_seen, &findings);
  // kCreateSession's backend byte is defined by the estimator seam's enum;
  // its table in docs/PROTOCOL.md must track it both ways too.
  SyncOneEnum("UncertaintyBackend", "src/uncertainty/estimator.h", backends,
              doc_rows, &doc_names_seen, &findings);
  for (const auto& [name, value] : doc_rows) {
    if (doc_names_seen.count(name) != 0) continue;
    findings.push_back(Make("docs/PROTOCOL.md", 0, "protocol-doc-sync",
                            "doc table row `" + name + "` (= " +
                                std::to_string(value) +
                                ") matches no protocol.h / estimator.h "
                                "enumerator"));
  }
  return findings;
}

std::vector<Finding> CheckSimdKernelTableSync(
    const std::string& header_source,
    const std::vector<std::pair<std::string, std::string>>& backend_sources) {
  const std::string header_path = "src/tensor/simd/kernels.h";
  std::vector<Finding> findings;
  std::vector<std::string> fields;
  if (!ParseF32KernelsFields(header_source, &fields)) {
    findings.push_back(Make(header_path, 0, "simd-discipline",
                            "struct F32Kernels not found (or has no "
                            "members)"));
    return findings;
  }
  const std::set<std::string> declared(fields.begin(), fields.end());
  for (const auto& [path, source] : backend_sources) {
    std::vector<std::string> set_fields;
    if (!ParseBackendTableFields(source, &set_fields)) {
      findings.push_back(
          Make(path, 0, "simd-discipline",
               "backend registers no F32Kernels table (expected a "
               "designated initializer naming every kernels.h field)"));
      continue;
    }
    const std::set<std::string> set_set(set_fields.begin(),
                                        set_fields.end());
    for (const std::string& field : fields) {
      if (set_set.count(field) == 0) {
        findings.push_back(Make(path, 0, "simd-discipline",
                                "F32Kernels field `" + field +
                                    "` is declared in kernels.h but never "
                                    "set in this backend's table"));
      }
    }
    for (const std::string& field : set_fields) {
      if (declared.count(field) == 0) {
        findings.push_back(Make(path, 0, "simd-discipline",
                                "designated initializer `." + field +
                                    "` matches no F32Kernels field in "
                                    "kernels.h"));
      }
    }
  }
  return findings;
}

}  // namespace tasfar::analyze
