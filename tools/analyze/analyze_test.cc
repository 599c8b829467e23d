#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "engine.h"
#include "facts.h"
#include "lexer.h"
#include "rules.h"
#include "sarif.h"

namespace tasfar::analyze {
namespace {

namespace fs = std::filesystem;

/// Every finding AnalyzeSource reports for one file, ordered by line.
std::vector<Finding> FileFindings(const std::string& path,
                                  const std::string& source) {
  return AnalyzeSource(path, source).findings;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

/// The source tree's root as seen from the test's working directory
/// (ctest runs this binary from build/tools/analyze), or "" if not found.
std::string RepoRoot() {
  for (const char* root : {".", "..", "../..", "../../.."}) {
    if (fs::exists(fs::path(root) / "tools/analyze/CACHE_SCHEMA")) return root;
  }
  return "";
}

int CountRule(const FileFacts& facts, const std::string& rule) {
  int n = 0;
  for (const Finding& f : facts.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// --- lexer ------------------------------------------------------------------

TEST(LexerTest, KindsAndLines) {
  const auto toks = Lex("int x = 42;\nfoo(\"s\", 'c');  // note\n");
  ASSERT_GE(toks.size(), 11u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_EQ(toks[3].text, "42");
  const auto code = CodeTokens(toks);
  for (const Token& t : code) EXPECT_NE(t.kind, TokKind::kComment);
  bool saw_string = false;
  bool saw_char = false;
  for (const Token& t : code) {
    if (t.kind == TokKind::kString) {
      saw_string = true;
      EXPECT_EQ(t.text, "s");
      EXPECT_EQ(t.line, 2);
    }
    if (t.kind == TokKind::kChar) {
      saw_char = true;
      EXPECT_EQ(t.text, "c");
    }
  }
  EXPECT_TRUE(saw_string);
  EXPECT_TRUE(saw_char);
}

TEST(LexerTest, MultiCharPunctuatorsAreGreedy) {
  const auto toks = Lex("a <<= b; p->q; x::y; i++;");
  std::vector<std::string> puncts;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "<<="), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "++"), puncts.end());
}

TEST(LexerTest, RawStringContentsAndLineCounting) {
  const auto toks = Lex("auto s = R\"x(line1\nline2)x\";\nint after;");
  bool saw_raw = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString) {
      saw_raw = true;
      EXPECT_EQ(t.text, "line1\nline2");
    }
    if (t.kind == TokKind::kIdent && t.text == "after") {
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_raw);
}

TEST(LexerTest, MatchingCloseHonorsNesting) {
  const auto toks = Lex("f(a, g(b, h[c]), {d})");
  ASSERT_TRUE(IsPunct(toks[1], "("));
  const size_t close = MatchingClose(toks, 1);
  EXPECT_EQ(close, toks.size() - 1);
}

TEST(LexerTest, ContentHashIsStableAndDiscriminates) {
  EXPECT_EQ(HashContent("abc"), HashContent("abc"));
  EXPECT_NE(HashContent("abc"), HashContent("abd"));
  EXPECT_NE(HashContent(""), HashContent(" "));
}

// --- StripCommentsAndStrings ------------------------------------------------

TEST(StripTest, RemovesLineComments) {
  const std::string out =
      StripCommentsAndStrings("int x;  // std::rand here\nint y;");
  EXPECT_EQ(out.find("std::rand"), std::string::npos);
  EXPECT_NE(out.find("int y;"), std::string::npos);
}

TEST(StripTest, RemovesBlockCommentsButKeepsNewlines) {
  const std::string out =
      StripCommentsAndStrings("a /* std::rand\nstd::rand */ b");
  EXPECT_EQ(out.find("std::rand"), std::string::npos);
  // The newline inside the comment survives so line numbers stay stable.
  EXPECT_NE(out.find('\n'), std::string::npos);
  EXPECT_NE(out.find('a'), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
}

TEST(StripTest, RemovesStringAndCharLiterals) {
  const std::string out = StripCommentsAndStrings(
      "f(\"std::rand\"); g('\\\"'); h(\"esc\\\"std::rand\");");
  EXPECT_EQ(out.find("std::rand"), std::string::npos);
}

TEST(StripTest, RemovesRawStrings) {
  const std::string out =
      StripCommentsAndStrings("auto s = R\"(std::rand \" )\"; int k;");
  EXPECT_EQ(out.find("std::rand"), std::string::npos);
  EXPECT_NE(out.find("int k;"), std::string::npos);
}

TEST(StripTest, KeepsCodeIntact) {
  const std::string src = "int dividend = a / b; int c = a / *p;";
  EXPECT_EQ(StripCommentsAndStrings(src), src);
}

// --- parallel-capture -------------------------------------------------------

struct RuleCase {
  const char* name;
  const char* source;
  int expected;
};

// Printing a case by name keeps its discovered test name stable; the
// default byte dump would spell out the string pointers, which move
// from run to run.
void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

class ParallelCaptureTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(ParallelCaptureTest, Detects) {
  const RuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource("src/core/fixture.cc", c.source);
  EXPECT_EQ(CountRule(facts, "parallel-capture"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelCaptureTest,
    ::testing::Values(
        RuleCase{"compound_assign_to_shared",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { total += x[i]; });\n"
                 "}\n",
                 1},
        RuleCase{"plain_assign_to_explicit_ref_capture",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&acc](size_t i) { acc = G(i); });\n"
                 "}\n",
                 1},
        RuleCase{"subscript_without_loop_index",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { out[0] = G(i); });\n"
                 "}\n",
                 1},
        RuleCase{"increment_of_shared",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { hits++; use(i); });\n"
                 "}\n",
                 1},
        RuleCase{"disjoint_subscript_write_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { out[i] = G(i); });\n"
                 "}\n",
                 0},
        RuleCase{"body_local_accumulator_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) {\n"
                 "    double acc = 0.0;\n"
                 "    acc += 1.0;\n"
                 "    out[i] = acc;\n"
                 "  });\n"
                 "}\n",
                 0},
        RuleCase{"member_call_on_shared_is_out_of_scope",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1,\n"
                 "              [&](size_t i) { counter.fetch_add(i); });\n"
                 "}\n",
                 0},
        RuleCase{"value_capture_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&out, n](size_t i) {\n"
                 "    out[i] = n;\n"
                 "  });\n"
                 "}\n",
                 0}));

// --- into-aliasing ----------------------------------------------------------

class IntoAliasingTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(IntoAliasingTest, Detects) {
  const RuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource("src/nn/fixture.cc", c.source);
  EXPECT_EQ(CountRule(facts, "into-aliasing"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IntoAliasingTest,
    ::testing::Values(
        RuleCase{"dest_aliases_first_input",
                 "void F() { AddInto(sum, t, &sum); }\n", 1},
        RuleCase{"dest_aliases_via_deref",
                 "void F(Tensor* a) { MulInto(*a, b, a); }\n", 1},
        RuleCase{"dest_aliases_subscripted_input",
                 "void F() { ScaleRowsInto(rows[k], s, &rows[k]); }\n", 1},
        RuleCase{"distinct_dest_is_fine",
                 "void F() { AddInto(a, b, &out); }\n", 0},
        RuleCase{"same_line_ack_is_fine",
                 "void F() {\n"
                 "  AddInto(sum, t, &sum);  // aliased: elementwise in-place\n"
                 "}\n",
                 0},
        RuleCase{"line_above_ack_is_fine",
                 "void F() {\n"
                 "  // aliased: elementwise in-place accumulate\n"
                 "  AddInto(sum, t, &sum);\n"
                 "}\n",
                 0},
        RuleCase{"declaration_is_not_a_call_site",
                 "void AddInto(const Tensor& a, const Tensor& b,\n"
                 "             Tensor* out);\n",
                 0}));

// --- workspace-escape -------------------------------------------------------

struct PathRuleCase {
  const char* name;
  const char* path;
  const char* source;
  int expected;
};

void PrintTo(const PathRuleCase& c, std::ostream* os) { *os << c.name; }

class WorkspaceEscapeTest : public ::testing::TestWithParam<PathRuleCase> {};

TEST_P(WorkspaceEscapeTest, Detects) {
  const PathRuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource(c.path, c.source);
  EXPECT_EQ(CountRule(facts, "workspace-escape"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkspaceEscapeTest,
    ::testing::Values(
        PathRuleCase{"member_store_direct", "src/nn/fixture.cc",
                     "void C::F(Workspace& ws) {\n"
                     "  cached_ = ws.NewTensor({2, 2});\n"
                     "}\n",
                     1},
        PathRuleCase{"direct_return_of_uninitialized", "src/nn/fixture.cc",
                     "Tensor F() {\n"
                     "  return Workspace::ThreadLocal().NewTensor({2});\n"
                     "}\n",
                     1},
        PathRuleCase{"member_store_via_local", "src/nn/fixture.cc",
                     "void C::F(Workspace& ws) {\n"
                     "  Tensor t = ws.NewTensor({2});\n"
                     "  Fill(&t);\n"
                     "  cached_ = t;\n"
                     "}\n",
                     1},
        PathRuleCase{"static_store", "src/nn/fixture.cc",
                     "void F(Workspace& ws) {\n"
                     "  static Tensor scratch = ws.ZeroTensor({2});\n"
                     "}\n",
                     1},
        PathRuleCase{"named_handoff_is_fine", "src/nn/fixture.cc",
                     "Tensor F(Workspace& ws) {\n"
                     "  Tensor out = ws.NewTensor({2});\n"
                     "  Fill(&out);\n"
                     "  return out;\n"
                     "}\n",
                     0},
        PathRuleCase{"workspace_impl_is_exempt", "src/tensor/workspace.cc",
                     "Tensor Workspace::ZeroTensor(const Shape& s) {\n"
                     "  return NewTensor(s);\n"
                     "}\n",
                     0}));

// --- seed-discipline --------------------------------------------------------

class SeedDisciplineTest : public ::testing::TestWithParam<PathRuleCase> {};

TEST_P(SeedDisciplineTest, Detects) {
  const PathRuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource(c.path, c.source);
  EXPECT_EQ(CountRule(facts, "seed-discipline"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SeedDisciplineTest,
    ::testing::Values(
        PathRuleCase{"xor_in_rng_declaration", "src/eval/fixture.cc",
                     "void F() { Rng rng(config.seed ^ 0x51u); }\n", 1},
        PathRuleCase{"plus_in_rng_temporary", "src/eval/fixture.cc",
                     "void F() { auto r = Rng(seed + 1); }\n", 1},
        PathRuleCase{"shift_in_fork", "src/eval/fixture.cc",
                     "void F() { auto r = rng.Fork(base_seed << 2); }\n", 1},
        PathRuleCase{"arithmetic_inside_mixseed", "src/eval/fixture.cc",
                     "void F() { auto s = MixSeed(seed * 31, stream); }\n", 1},
        PathRuleCase{"mixseed_derivation_is_fine", "src/eval/fixture.cc",
                     "void F() { Rng rng(MixSeed(config.seed, 7)); }\n", 0},
        PathRuleCase{"fork_without_seed_ident_is_fine", "src/eval/fixture.cc",
                     "void F() { auto r = rng.Fork(k + 1); }\n", 0},
        PathRuleCase{"rng_impl_is_exempt", "src/util/rng.cc",
                     "Rng MakeChild(uint64_t seed) { return Rng(seed ^ 1); }\n",
                     0}));

// --- rng-discipline ---------------------------------------------------------

TEST(RngDisciplineTest, FlagsStdRand) {
  const auto findings = FileFindings("src/foo.cc", "int x = std::rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(RngDisciplineTest, FlagsBareRandCall) {
  const auto findings = FileFindings("tests/foo_test.cc", "int x = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
}

TEST(RngDisciplineTest, FlagsMt19937AndRandomDevice) {
  const auto findings = FileFindings(
      "bench/foo.cc", "std::mt19937 gen(std::random_device{}());\n");
  EXPECT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "rng-discipline");
}

TEST(RngDisciplineTest, FlagsUnqualifiedMt19937) {
  const auto findings =
      FileFindings("src/foo.cc", "using std::mt19937;\nmt19937 gen;\n");
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RngDisciplineTest, FlagsArglessTimeSeeding) {
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time(NULL));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time(nullptr));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time( 0 ));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(std::time(nullptr));\n").size(), 1u);
}

TEST(RngDisciplineTest, AllowsTimeWithRealArgument) {
  EXPECT_TRUE(FileFindings("src/a.cc", "time_t t; time(&t);\n").empty());
}

TEST(RngDisciplineTest, NoFalsePositiveOnSubstrings) {
  // "rand" inside identifiers, Rng usage, and elapsed-time helpers are fine.
  const std::string src =
      "int operand = 1;\n"
      "double r = rng.Uniform();\n"
      "double elapsed_time(int x);\n"
      "my_rand_helper();\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(RngDisciplineTest, IgnoresCommentsAndStrings) {
  const std::string src =
      "// std::rand is banned\n"
      "const char* msg = \"std::mt19937\";\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(RngDisciplineTest, AppliesOutsideSrcToo) {
  EXPECT_EQ(FileFindings("examples/demo.cpp", "std::rand();\n").size(), 1u);
  EXPECT_EQ(FileFindings("tools/gen.cc", "std::rand();\n").size(), 1u);
}

// --- thread-discipline ------------------------------------------------------

TEST(ThreadDisciplineTest, FlagsRawStdThread) {
  const auto findings =
      FileFindings("src/core/foo.cc", "std::thread t([]{});\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "thread-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(ThreadDisciplineTest, FlagsJthreadAndAsync) {
  const auto findings = FileFindings(
      "bench/foo.cc", "std::jthread t([]{});\nauto f = std::async([]{});\n");
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "thread-discipline");
  }
}

TEST(ThreadDisciplineTest, AppliesOutsideSrcToo) {
  EXPECT_EQ(FileFindings("tests/foo_test.cc", "std::thread t;\n").size(), 1u);
  EXPECT_EQ(FileFindings("examples/demo.cpp", "std::thread t;\n").size(), 1u);
}

TEST(ThreadDisciplineTest, AllowsThreadPoolImplementation) {
  EXPECT_TRUE(FileFindings("src/util/thread_pool.cc",
                           "workers_.emplace_back(std::thread([]{}));\n")
                  .empty());
  // The .h snippet still gets the header-guard rule; only the
  // thread-discipline exemption is under test here.
  for (const Finding& f :
       FileFindings("src/util/thread_pool.h",
                    "std::vector<std::thread> workers_;\n")) {
    EXPECT_NE(f.rule, "thread-discipline");
  }
}

TEST(ThreadDisciplineTest, AllowsThisThreadAndThreadPool) {
  // std::this_thread (sleep/yield) and our own ThreadPool are fine; so is
  // the word "thread" in identifiers.
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "std::this_thread::yield();\n"
                           "ThreadPool pool(4);\n"
                           "size_t num_threads = 2;\n")
                  .empty());
}

TEST(ThreadDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// std::thread is banned here\n"
                           "const char* s = \"std::thread\";\n")
                  .empty());
}

// --- no-iostream ------------------------------------------------------------

TEST(NoIostreamTest, FlagsIostreamInSrc) {
  const auto findings =
      FileFindings("src/core/foo.cc", "#include <iostream>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-iostream");
}

TEST(NoIostreamTest, AllowsIostreamOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("examples/demo.cpp", "#include <iostream>\n").empty());
  EXPECT_TRUE(
      FileFindings("tests/foo_test.cc", "#include <iostream>\n").empty());
}

TEST(NoIostreamTest, AllowsOtherStreamHeadersInSrc) {
  EXPECT_TRUE(FileFindings("src/foo.cc",
                           "#include <sstream>\n#include <fstream>\n")
                  .empty());
}

// --- check-not-assert -------------------------------------------------------

TEST(CheckNotAssertTest, FlagsAssertCallAndHeaderInSrc) {
  const auto findings = FileFindings(
      "src/foo.cc", "#include <cassert>\nvoid f() { assert(1 == 1); }\n");
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"check-not-assert",
                                      "check-not-assert"}));
}

TEST(CheckNotAssertTest, AllowsTasfarCheckAndStaticAssert) {
  const std::string src =
      "TASFAR_CHECK(x > 0);\n"
      "static_assert(sizeof(int) == 4);\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(CheckNotAssertTest, AllowsAssertOutsideSrc) {
  EXPECT_TRUE(FileFindings("tests/foo_test.cc", "assert(true);\n").empty());
}

// --- timing-discipline ------------------------------------------------------

TEST(TimingDisciplineTest, FlagsStdChronoInSrc) {
  const auto findings = FileFindings(
      "src/core/foo.cc",
      "auto t0 = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "timing-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(TimingDisciplineTest, FlagsChronoIncludeOnce) {
  const auto findings =
      FileFindings("src/util/foo.cc", "#include <chrono>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "timing-discipline");
}

TEST(TimingDisciplineTest, AllowsChronoInObs) {
  EXPECT_TRUE(FileFindings("src/obs/clock.cc",
                           "#include <chrono>\n"
                           "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(TimingDisciplineTest, AllowsChronoOutsideSrc) {
  EXPECT_TRUE(FileFindings("bench/foo.cc",
                           "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_TRUE(
      FileFindings("tests/foo_test.cc", "#include <chrono>\n").empty());
}

TEST(TimingDisciplineTest, NoFalsePositiveOnIdentifiers) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "int chronology = 1;\n"
                           "double my_chrono_like = 2.0;\n")
                  .empty());
}

TEST(TimingDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// std::chrono would be banned here\n"
                           "const char* s = \"std::chrono\";\n")
                  .empty());
}

// --- memory-discipline ------------------------------------------------------

TEST(MemoryDisciplineTest, FlagsByValueTensorParam) {
  const auto findings =
      FileFindings("src/nn/foo.cc", "Tensor Forward(Tensor input);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "memory-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(MemoryDisciplineTest, FlagsConstByValueAndSecondParam) {
  const auto findings = FileFindings(
      "src/nn/foo.cc", "void F(const Tensor t);\nvoid G(int n, Tensor t);\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
}

TEST(MemoryDisciplineTest, AllowsReferenceAndPointerParams) {
  EXPECT_TRUE(FileFindings("src/nn/foo.cc",
                           "Tensor F(const Tensor& a, Tensor* out);\n"
                           "void G(Tensor& inout, const Tensor* p);\n")
                  .empty());
}

TEST(MemoryDisciplineTest, AllowsLocalsReturnsAndTemplates) {
  EXPECT_TRUE(FileFindings("src/nn/foo.cc",
                           "Tensor F();\n"
                           "void G() {\n"
                           "  Tensor local = F();\n"
                           "  std::vector<Tensor> all;\n"
                           "  H(Tensor({2, 2}));\n"
                           "}\n")
                  .empty());
}

TEST(MemoryDisciplineTest, FlagsVectorCopyOfTensorData) {
  const auto findings = FileFindings(
      "src/nn/foo.cc",
      "std::vector<double> v(std::vector<double>(t.data(), t.data() + "
      "t.size()));\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "memory-discipline");
}

TEST(MemoryDisciplineTest, AllowsVectorWithoutTensorData) {
  EXPECT_TRUE(
      FileFindings("src/nn/foo.cc", "std::vector<double> v(n, 0.0);\n")
          .empty());
}

TEST(MemoryDisciplineTest, ExemptsTensorInternalsFromCopyBan) {
  EXPECT_TRUE(FileFindings("src/tensor/tensor.cc",
                           "auto v = std::vector<double>(src.data(), "
                           "src.data() + n);\n")
                  .empty());
}

TEST(MemoryDisciplineTest, NotAppliedOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("tests/nn/foo_test.cc", "void F(Tensor by_value);\n")
          .empty());
}

// --- estimator-discipline ---------------------------------------------------

TEST(EstimatorDisciplineTest, FlagsConcreteEstimatorsInSrc) {
  const auto findings = FileFindings(
      "src/core/tasfar.cc",
      "McDropoutPredictor p(model, 20);\n"
      "auto e = DeepEnsemble::FromSource(model, 5, seed);\n"
      "LastLayerLaplace l(model);\n");
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "estimator-discipline");
    EXPECT_NE(f.message.find("MakeEstimator"), std::string::npos);
  }
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
}

TEST(EstimatorDisciplineTest, AllowsTheSeamItself) {
  EXPECT_TRUE(FileFindings("src/uncertainty/estimator.cc",
                           "return std::make_unique<McDropoutPredictor>(\n"
                           "    model, config.mc_samples);\n")
                  .empty());
}

TEST(EstimatorDisciplineTest, AllowsSeamTypesAndEnumerators) {
  // The abstract interface, the factory, and backend enumerators are how
  // the rest of src/ is *supposed* to talk about estimators.
  EXPECT_TRUE(
      FileFindings(
          "src/serve/session.cc",
          "std::unique_ptr<UncertaintyEstimator> e =\n"
          "    MakeEstimator(model, config);\n"
          "if (b == UncertaintyBackend::kDeepEnsemble) { Charge(); }\n")
          .empty());
}

TEST(EstimatorDisciplineTest, NotAppliedOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("tests/uncertainty/ensemble_test.cc",
                   "DeepEnsemble e = DeepEnsemble::FromSource(m, 5, 1);\n")
          .empty());
  EXPECT_TRUE(
      FileFindings("bench/bench_micro_core.cc", "LastLayerLaplace l(&model);\n")
          .empty());
}

TEST(EstimatorDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// McDropoutPredictor would be banned here\n"
                           "const char* s = \"DeepEnsemble\";\n")
                  .empty());
}

// --- header-guard -----------------------------------------------------------

TEST(HeaderGuardTest, ExpectedGuardDropsSrcPrefix) {
  EXPECT_EQ(ExpectedHeaderGuard("src/util/rng.h"), "TASFAR_UTIL_RNG_H_");
  EXPECT_EQ(ExpectedHeaderGuard("src/core/partitioner.h"),
            "TASFAR_CORE_PARTITIONER_H_");
}

TEST(HeaderGuardTest, ExpectedGuardKeepsNonSrcRoots) {
  EXPECT_EQ(ExpectedHeaderGuard("bench/bench_common.h"),
            "TASFAR_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tools/lint/lint.h"),
            "TASFAR_TOOLS_LINT_LINT_H_");
}

TEST(HeaderGuardTest, AcceptsCorrectGuard) {
  const std::string src =
      "#ifndef TASFAR_UTIL_FOO_H_\n"
      "#define TASFAR_UTIL_FOO_H_\n"
      "#endif  // TASFAR_UTIL_FOO_H_\n";
  EXPECT_TRUE(FileFindings("src/util/foo.h", src).empty());
}

TEST(HeaderGuardTest, FlagsMissingGuard) {
  const auto findings = FileFindings("src/util/foo.h", "int x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-guard");
}

TEST(HeaderGuardTest, FlagsWrongGuardName) {
  const std::string src =
      "#ifndef FOO_H\n#define FOO_H\n#endif\n";
  const auto findings = FileFindings("src/util/foo.h", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("TASFAR_UTIL_FOO_H_"),
            std::string::npos);
}

TEST(HeaderGuardTest, FlagsGuardNeverDefined) {
  const std::string src = "#ifndef TASFAR_UTIL_FOO_H_\nint x;\n#endif\n";
  const auto findings = FileFindings("src/util/foo.h", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("never #defined"), std::string::npos);
}

TEST(HeaderGuardTest, SkipsNonHeaderFiles) {
  EXPECT_TRUE(FileFindings("src/util/foo.cc", "int x;\n").empty());
}

// --- ordering ---------------------------------------------------------------

TEST(LintSourceTest, FindingsSortedByLine) {
  const std::string src =
      "int a = 1;\n"
      "std::mt19937 g;\n"
      "int b = std::rand();\n";
  const auto findings = FileFindings("src/foo.cc", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

// --- protocol-doc-sync ------------------------------------------------------

namespace {

// Minimal header/doc pair that is in sync; tests below perturb one side.
const char kSyncedHeader[] =
    "enum class MessageType : std::uint16_t {\n"
    "  kCreateSession = 1,\n"
    "  kPing = 10,\n"
    "  kOkResponse = 128,\n"
    "};\n"
    "enum class WireError : std::uint16_t {\n"
    "  kBadRequest = 1,\n"
    "};\n";

// The estimator seam's backend enum rides the same doc-sync rule: its
// values are kCreateSession's backend byte.
const char kSyncedEstimatorHeader[] =
    "enum class UncertaintyBackend : uint8_t {\n"
    "  kMcDropout = 0,\n"
    "  kDeepEnsemble = 1,\n"
    "};\n";

const char kSyncedDoc[] =
    "| Message | Value |\n"
    "|---------|-------|\n"
    "| `kCreateSession` | 1 |\n"
    "| `kPing` | 10 |\n"
    "| `kOkResponse` | 128 |\n"
    "\n"
    "| Error | Value |\n"
    "| `kBadRequest` | 1 |\n"
    "\n"
    "| Backend | Value |\n"
    "| `kMcDropout` | 0 |\n"
    "| `kDeepEnsemble` | 1 |\n";

}  // namespace

TEST(ProtocolDocSyncTest, CleanWhenInSync) {
  EXPECT_TRUE(CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader,
                                   kSyncedDoc)
                  .empty());
}

TEST(ProtocolDocSyncTest, FlagsEnumeratorMissingFromDoc) {
  std::string doc(kSyncedDoc);
  doc.erase(doc.find("| `kPing` | 10 |\n"), sizeof("| `kPing` | 10 |\n") - 1);
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
  EXPECT_NE(findings[0].message.find("kPing"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsValueDisagreement) {
  std::string doc(kSyncedDoc);
  doc.replace(doc.find("| `kPing` | 10 |"), sizeof("| `kPing` | 10 |") - 1,
              "| `kPing` | 11 |");
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kPing"), std::string::npos);
  EXPECT_NE(findings[0].message.find("10"), std::string::npos);
  EXPECT_NE(findings[0].message.find("11"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsDocRowWithNoEnumerator) {
  std::string doc(kSyncedDoc);
  doc += "| `kGhostMessage` | 42 |\n";
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kGhostMessage"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsEnumeratorWithoutExplicitValue) {
  std::string header(kSyncedHeader);
  header.replace(header.find("kPing = 10,"), sizeof("kPing = 10,") - 1,
                 "kPing,");
  const auto findings =
      CheckProtocolDocSync(header, kSyncedEstimatorHeader, kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
}

TEST(ProtocolDocSyncTest, FlagsMissingEnumBlock) {
  const auto findings =
      CheckProtocolDocSync("int x;\n", kSyncedEstimatorHeader, kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("MessageType"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsBackendEnumeratorMissingFromDoc) {
  std::string doc(kSyncedDoc);
  doc.erase(doc.find("| `kDeepEnsemble` | 1 |\n"),
            sizeof("| `kDeepEnsemble` | 1 |\n") - 1);
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
  EXPECT_NE(findings[0].message.find("UncertaintyBackend::kDeepEnsemble"),
            std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsBackendValueDisagreement) {
  std::string doc(kSyncedDoc);
  doc.replace(doc.find("| `kDeepEnsemble` | 1 |"),
              sizeof("| `kDeepEnsemble` | 1 |") - 1,
              "| `kDeepEnsemble` | 2 |");
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kDeepEnsemble"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsMissingBackendEnumBlock) {
  const auto findings =
      CheckProtocolDocSync(kSyncedHeader, "int x;\n", kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("UncertaintyBackend"),
            std::string::npos);
  EXPECT_EQ(findings[0].file, "src/uncertainty/estimator.h");
}

TEST(ProtocolDocSyncTest, ReadsHexWireValues) {
  std::string header(kSyncedHeader);
  header.replace(header.find("kPing = 10,"), sizeof("kPing = 10,") - 1,
                 "kPing = 0x10,");
  std::string doc(kSyncedDoc);
  doc.replace(doc.find("| `kPing` | 10 |"), sizeof("| `kPing` | 10 |") - 1,
              "| `kPing` | 16 |");
  EXPECT_TRUE(CheckProtocolDocSync(header, kSyncedEstimatorHeader, doc)
                  .empty());
  doc.replace(doc.find("| `kPing` | 16 |"), sizeof("| `kPing` | 16 |") - 1,
              "| `kPing` | 0 |");
  const auto findings =
      CheckProtocolDocSync(header, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].message,
            "MessageType::kPing is 16 in the header but 0 in the doc");
}

TEST(ProtocolDocSyncTest, IgnoresEnumeratorsInBlockComments) {
  std::string header(kSyncedHeader);
  header.insert(header.find("  kPing = 10,"), "  /* kGhost = 9 */\n");
  EXPECT_TRUE(CheckProtocolDocSync(header, kSyncedEstimatorHeader, kSyncedDoc)
                  .empty());
}

TEST(ProtocolDocSyncTest, RealRepoFilesAreInSync) {
  // Guard against the checked-in header and doc drifting apart.
  const std::string root = RepoRoot();
  if (root.empty()) GTEST_SKIP() << "repo root not found from test cwd";
  EXPECT_TRUE(CheckProtocolDocSyncFiles(root).empty());
}

// --- simd-discipline --------------------------------------------------------

TEST(SimdDisciplineTest, FlagsIntrinsicHeaderOutsideSimdDir) {
  const auto findings =
      FileFindings("src/nn/dense.cc", "#include <immintrin.h>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("immintrin"), std::string::npos);
}

TEST(SimdDisciplineTest, FlagsNeonHeaderOutsideSimdDir) {
  const auto findings =
      FileFindings("tests/tensor/foo_test.cc", "#include <arm_neon.h>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
}

TEST(SimdDisciplineTest, FlagsX86IntrinsicIdentifiers) {
  const auto findings = FileFindings(
      "src/nn/dense.cc",
      "__m256 v = _mm256_loadu_ps(p);\n_mm256_storeu_ps(q, v);\n");
  ASSERT_EQ(findings.size(), 3u);  // __m256 + two _mm256_* calls.
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-discipline");
}

TEST(SimdDisciplineTest, FlagsNeonIntrinsicIdentifiers) {
  const auto findings = FileFindings(
      "src/uncertainty/mc_dropout.cc",
      "float32x4_t v = vld1q_f32(p);\nvst1q_f32(q, vfmaq_f32(v, v, v));\n");
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-discipline");
}

TEST(SimdDisciplineTest, AllowsIntrinsicsInsideSimdDir) {
  const auto findings = FileFindings(
      "src/tensor/simd/kernels_avx2.cc",
      "#include <immintrin.h>\n__m256 v = _mm256_setzero_ps();\n");
  EXPECT_TRUE(findings.empty());
}

TEST(SimdDisciplineTest, AllowsF32SuffixedVariablesAndMentionsInComments) {
  // weight_f32_ / a_f32 do not match the NEON v*q_f32 pattern, and banned
  // names inside comments or strings are never findings.
  const auto findings = FileFindings(
      "src/nn/dense.cc",
      "int weight_f32_ = 0;  // _mm256_loadu_ps in a comment is fine\n"
      "const char* s = \"float32x4_t\";\nint a_f32 = weight_f32_;\n");
  EXPECT_TRUE(findings.empty());
}

namespace {

// Minimal kernels.h/backend pair that is in sync; tests perturb one side.
const char kSyncedKernelsHeader[] =
    "struct F32Kernels {\n"
    "  const char* name;\n"
    "  void (*matmul)(const float* a, const float* b, float* c, size_t m,\n"
    "                 size_t k, size_t n);\n"
    "  void (*relu)(const float* in, float* out, size_t n);\n"
    "};\n";

const char kSyncedBackend[] =
    "const F32Kernels& ScalarKernels() {\n"
    "  static const F32Kernels kTable = {\n"
    "      .name = \"scalar\",\n"
    "      .matmul = ScalarMatMul,\n"
    "      .relu = ScalarRelu,\n"
    "  };\n"
    "  return kTable;\n"
    "}\n";

}  // namespace

TEST(SimdKernelTableSyncTest, CleanWhenInSync) {
  EXPECT_TRUE(CheckSimdKernelTableSync(
                  kSyncedKernelsHeader,
                  {{"src/tensor/simd/kernels_scalar.cc", kSyncedBackend}})
                  .empty());
}

TEST(SimdKernelTableSyncTest, FlagsFieldMissingFromBackendTable) {
  std::string backend(kSyncedBackend);
  backend.erase(backend.find("      .relu = ScalarRelu,\n"),
                sizeof("      .relu = ScalarRelu,\n") - 1);
  const auto findings = CheckSimdKernelTableSync(
      kSyncedKernelsHeader, {{"src/tensor/simd/kernels_scalar.cc", backend}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
  EXPECT_NE(findings[0].message.find("relu"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsInitializerWithNoDeclaredField) {
  std::string backend(kSyncedBackend);
  backend.replace(backend.find(".relu = ScalarRelu"),
                  sizeof(".relu = ScalarRelu") - 1, ".gelu = ScalarGelu");
  const auto findings = CheckSimdKernelTableSync(
      kSyncedKernelsHeader, {{"src/tensor/simd/kernels_scalar.cc", backend}});
  ASSERT_EQ(findings.size(), 2u);  // relu never set + gelu undeclared.
  EXPECT_NE(findings[0].message.find("relu"), std::string::npos);
  EXPECT_NE(findings[1].message.find("gelu"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsBackendWithNoTable) {
  const auto findings = CheckSimdKernelTableSync(
      kSyncedKernelsHeader,
      {{"src/tensor/simd/kernels_neon.cc", "void NeonMatMul();\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no F32Kernels table"),
            std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsMissingStruct) {
  const auto findings = CheckSimdKernelTableSync(
      "int x;\n", {{"src/tensor/simd/kernels_scalar.cc", kSyncedBackend}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("F32Kernels"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, RealRepoTablesAreInSync) {
  const std::string root = RepoRoot();
  if (root.empty()) GTEST_SKIP() << "repo root not found from test cwd";
  for (const auto& finding : CheckSimdKernelTableSyncFiles(root)) {
    ADD_FAILURE() << finding.file << ": " << finding.message;
  }
}

// --- registry-consistency ---------------------------------------------------

std::vector<Finding> RegistryFindings(const std::string& src,
                                      const std::string& obs_doc,
                                      const std::string& testing_doc) {
  std::vector<FileFacts> facts;
  facts.push_back(AnalyzeSource("src/core/fixture.cc", src));
  DocNames docs;
  ScanDocNames("docs/OBSERVABILITY.md", obs_doc, &docs);
  ScanDocNames("docs/TESTING.md", testing_doc, &docs);
  return CheckRegistryConsistency(facts, docs);
}

TEST(RegistryConsistencyTest, UndocumentedMetricIsFlagged) {
  const auto findings = RegistryFindings(
      "void F() { obs::Registry::Get().GetCounter(\"tasfar.foo.count\"); }\n",
      "no mention here\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "registry-consistency");
  EXPECT_EQ(findings[0].file, "src/core/fixture.cc");
  EXPECT_NE(findings[0].message.find("tasfar.foo.count"), std::string::npos);
}

TEST(RegistryConsistencyTest, OrphanedDocNameIsFlagged) {
  const auto findings =
      RegistryFindings("void F() {}\n", "see `tasfar.ghost.metric`\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "docs/OBSERVABILITY.md");
  EXPECT_NE(findings[0].message.find("tasfar.ghost.metric"),
            std::string::npos);
}

TEST(RegistryConsistencyTest, SpanRequiresDocumentedHistogramName) {
  const std::string src = "void F() { TASFAR_TRACE_SPAN(\"stage\"); }\n";
  EXPECT_EQ(RegistryFindings(src, "nothing\n", "").size(), 1u);
  EXPECT_TRUE(
      RegistryFindings(src, "the `tasfar.span.stage.ms` histogram\n", "")
          .empty());
}

TEST(RegistryConsistencyTest, FailpointMustBeInInjectionTable) {
  const std::string src = "void F() { TASFAR_FAILPOINT(\"stage.poison\"); }\n";
  const std::string table =
      "### Injection sites\n"
      "| site | effect |\n"
      "| `stage.poison` | poisons the stage |\n";
  EXPECT_EQ(RegistryFindings(src, "", "").size(), 1u);
  EXPECT_TRUE(RegistryFindings(src, "", table).empty());
  // Orphaned table rows are flagged in the other direction.
  const auto orphans = RegistryFindings("void F() {}\n", "", table);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].file, "docs/TESTING.md");
}

TEST(RegistryConsistencyTest, DynamicPrefixCoversDocumentedNames) {
  const auto findings = RegistryFindings(
      "void F(const std::string& n) {\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.dyn.\" + n);\n"
      "}\n",
      "counters like `tasfar.dyn.anything` appear per site\n", "");
  EXPECT_TRUE(findings.empty());
}

TEST(RegistryConsistencyTest, DottedFailpointSiteNameIsNotADocOrphan) {
  // Failpoint site names can be tasfar.-prefixed and dotted; backticking
  // one in prose (outside the injection table) must not read as an
  // undocumented-metric orphan.
  const std::string src = "void F() { TASFAR_FAILPOINT(\"tasfar.sf\"); }\n";
  const std::string table =
      "### Injection sites\n"
      "| site | effect |\n"
      "| `tasfar.sf` | stage fault |\n";
  const auto findings =
      RegistryFindings(src, "fires the `tasfar.sf` failpoint\n", table);
  EXPECT_TRUE(findings.empty());
}

TEST(RegistryConsistencyTest, SpanPrefixDoesNotCoverDocOrphans) {
  // tasfar.span.*.ms names are statically known: a documented span metric
  // with no matching TASFAR_TRACE_SPAN is an orphan even though the span
  // histogram registration is dynamic.
  const auto findings = RegistryFindings(
      "void F() {}\n", "the `tasfar.span.ghost.ms` histogram\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("tasfar.span.ghost.ms"),
            std::string::npos);
}

TEST(RegistryConsistencyTest, FlightCodeRequiresDocRow) {
  const std::string src =
      "enum class FlightCode : uint8_t {\n"
      "  kSessionCreated = 0,\n"
      "  kAdaptFellBack = 5,\n"
      "};\n";
  const auto findings = RegistryFindings(src, "nothing here\n", "");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("serve.flight."), std::string::npos);
  const std::string doc =
      "| `serve.flight.session_created` | created |\n"
      "| `serve.flight.adapt_fell_back` | fell back |\n";
  EXPECT_TRUE(RegistryFindings(src, doc, "").empty());
}

TEST(RegistryConsistencyTest, OrphanedFlightCodeDocRowIsFlagged) {
  // serve.flight.* tokens are not tasfar.-prefixed, so they need their own
  // reverse sweep: a documented code with no enumerator is an orphan.
  const auto findings = RegistryFindings(
      "void F() {}\n", "the `serve.flight.ghost_event` code\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "docs/OBSERVABILITY.md");
  EXPECT_NE(findings[0].message.find("serve.flight.ghost_event"),
            std::string::npos);
}

TEST(FactsTest, ExtractsFlightCodesAsSnakeCaseNames) {
  const FileFacts facts = AnalyzeSource(
      "src/serve/telemetry.h",
      "enum class FlightCode : uint8_t {\n"
      "  kSessionCreated = 0,\n"
      "  kAdaptQueued = 2,\n"
      "  kBudgetRejected = 9,\n"
      "};\n"
      "// Usage elsewhere must not double-count:\n"
      "inline void F() { auto c = FlightCode::kAdaptQueued; (void)c; }\n");
  ASSERT_EQ(facts.flight_codes.size(), 3u);
  EXPECT_EQ(facts.flight_codes[0].name, "serve.flight.session_created");
  EXPECT_EQ(facts.flight_codes[1].name, "serve.flight.adapt_queued");
  EXPECT_EQ(facts.flight_codes[2].name, "serve.flight.budget_rejected");
  EXPECT_EQ(facts.flight_codes[0].line, 2);
}

// --- suppressions & facts extraction ----------------------------------------

TEST(FactsTest, ParsesAllowCommentsAndAliasAcks) {
  const FileFacts facts = AnalyzeSource(
      "src/core/fixture.cc",
      "// TASFAR_ANALYZE_ALLOW(seed-discipline): pinned eval stream\n"
      "void F() { Rng rng(seed ^ 3); }\n"
      "void G() { AddInto(s, t, &s); }  // aliased: in-place\n");
  ASSERT_EQ(facts.suppressions.size(), 1u);
  EXPECT_EQ(facts.suppressions[0].rule, "seed-discipline");
  EXPECT_EQ(facts.suppressions[0].reason, "pinned eval stream");
  EXPECT_EQ(facts.suppressions[0].line, 1);
  ASSERT_EQ(facts.aliased_ack_lines.size(), 1u);
  EXPECT_EQ(facts.aliased_ack_lines[0], 3);
  // The seed finding is still recorded raw; the engine marks it
  // suppressed. The acked aliasing call produces no finding at all.
  EXPECT_EQ(CountRule(facts, "seed-discipline"), 1);
  EXPECT_EQ(CountRule(facts, "into-aliasing"), 0);
}

TEST(FactsTest, ExtractsSymbols) {
  const FileFacts facts = AnalyzeSource(
      "src/core/fixture.cc",
      "void F() {\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.a.count\");\n"
      "  obs::Registry::Get().GetHistogram(\"tasfar.b.ms\", 64);\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.dyn.\" + n);\n"
      "  guard::CheckFinite(t, \"stage_nonfinite\");\n"
      "  TASFAR_TRACE_SPAN(\"stage\");\n"
      "  TASFAR_FAILPOINT(\"stage.poison\");\n"
      "}\n");
  ASSERT_EQ(facts.metrics.size(), 3u);
  EXPECT_EQ(facts.metrics[0].name, "tasfar.a.count");
  EXPECT_EQ(facts.metrics[1].name, "tasfar.b.ms");
  EXPECT_EQ(facts.metrics[2].name, "tasfar.guard.stage_nonfinite");
  ASSERT_EQ(facts.metric_prefixes.size(), 1u);
  EXPECT_EQ(facts.metric_prefixes[0], "tasfar.dyn.");
  ASSERT_EQ(facts.spans.size(), 1u);
  EXPECT_EQ(facts.spans[0].name, "stage");
  ASSERT_EQ(facts.failpoints.size(), 1u);
  EXPECT_EQ(facts.failpoints[0].name, "stage.poison");
}

TEST(FactsTest, SerializationRoundTrips) {
  const FileFacts facts = AnalyzeSource(
      "src/core/fixture.cc",
      "// TASFAR_ANALYZE_ALLOW(into-aliasing): fixture\n"
      "void F() { AddInto(s, t, &s); }\n"
      "void G() { TASFAR_FAILPOINT(\"x.poison\"); }\n");
  FileFacts parsed;
  ASSERT_TRUE(ParseFacts(SerializeFacts(facts), &parsed));
  EXPECT_EQ(parsed.path, facts.path);
  EXPECT_EQ(parsed.content_hash, facts.content_hash);
  EXPECT_EQ(parsed.findings, facts.findings);
  ASSERT_EQ(parsed.suppressions.size(), facts.suppressions.size());
  EXPECT_EQ(parsed.suppressions[0].rule, facts.suppressions[0].rule);
  EXPECT_EQ(parsed.suppressions[0].reason, facts.suppressions[0].reason);
  ASSERT_EQ(parsed.failpoints.size(), 1u);
  EXPECT_EQ(parsed.failpoints[0].name, "x.poison");
}

TEST(FactsTest, CacheSchemaFileMatchesTheConstant) {
  // CI keys its facts cache on tools/analyze/CACHE_SCHEMA, so the file and
  // kFactsSchemaVersion must move together.
  const std::string root = RepoRoot();
  if (root.empty()) GTEST_SKIP() << "repo root not found from test cwd";
  std::ifstream in(fs::path(root) / "tools/analyze/CACHE_SCHEMA");
  int version = 0;
  in >> version;
  EXPECT_EQ(version, kFactsSchemaVersion);
}

TEST(FactsTest, ParseRejectsWrongSchemaVersion) {
  const FileFacts facts = AnalyzeSource("src/a.cc", "void F() {}\n");
  std::string text = SerializeFacts(facts);
  const std::string tag = "v" + std::to_string(kFactsSchemaVersion);
  text.replace(text.find(tag), tag.size(), "v999");
  FileFacts parsed;
  EXPECT_FALSE(ParseFacts(text, &parsed));
}

// --- engine & incremental cache ---------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("analyze_engine_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    for (const char* dir :
         {"src/core", "src/serve", "src/uncertainty", "src/tensor/simd",
          "tests", "bench", "examples", "tools", "docs"}) {
      fs::create_directories(root_ / dir);
    }
    WriteFile("docs/MEMORY.md", "# Memory\n");
    WriteFile("docs/OBSERVABILITY.md",
              "# Observability\n`tasfar.sample.count`\n");
    WriteFile("docs/TESTING.md", "# Testing\n### Injection sites\n");
    WriteFile("src/core/sample.cc", Sample());
    // What the cross-file syncs read, in sync.
    WriteHeader("src/serve/protocol.h", kSyncedHeader);
    WriteHeader("src/uncertainty/estimator.h", kSyncedEstimatorHeader);
    WriteFile("docs/PROTOCOL.md", kSyncedDoc);
    WriteHeader("src/tensor/simd/kernels.h", kSyncedKernelsHeader);
    WriteFile("src/tensor/simd/kernels_scalar.cc", kSyncedBackend);
  }

  /// Source files SetUp writes: the sample plus the four sync inputs.
  static constexpr int kFixtureSources = 5;
  void TearDown() override { fs::remove_all(root_); }

  static std::string Sample() {
    return "void F() {\n"
           "  obs::Registry::Get().GetCounter(\"tasfar.sample.count\");\n"
           "  // TASFAR_ANALYZE_ALLOW(into-aliasing): fixture in-place\n"
           "  AddInto(sum, t, &sum);\n"
           "}\n";
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel, std::ios::binary | std::ios::trunc);
    out << content;
  }

  void WriteHeader(const std::string& rel, const std::string& body) {
    const std::string guard = ExpectedHeaderGuard(rel);
    WriteFile(rel, "#ifndef " + guard + "\n#define " + guard + "\n" + body +
                       "#endif\n");
  }

  AnalyzeResult Run() {
    AnalyzeOptions options;
    options.repo_root = root_.string();
    options.cache_dir = (root_ / "cache").string();
    return AnalyzeRepo(options);
  }

  fs::path root_;
};

TEST_F(EngineTest, SecondRunHitsTheCacheWithIdenticalResults) {
  const AnalyzeResult cold = Run();
  ASSERT_FALSE(cold.io_error) << cold.error;
  EXPECT_EQ(cold.files_scanned, kFixtureSources);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, kFixtureSources);

  const AnalyzeResult warm = Run();
  ASSERT_FALSE(warm.io_error) << warm.error;
  EXPECT_EQ(warm.cache_hits, kFixtureSources);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.findings, cold.findings);
}

TEST_F(EngineTest, PathsThatFlattenAlikeKeepSeparateCacheEntries) {
  // Mapping '/' to '_' would give both files one cache entry; each run
  // would then miss on one of them (and two workers would write it).
  fs::create_directories(root_ / "src/a");
  WriteFile("src/a_b.cc", "void Ab() {}\n");
  WriteFile("src/a/b.cc", "void B() {}\n");
  const AnalyzeResult cold = Run();
  ASSERT_FALSE(cold.io_error) << cold.error;
  EXPECT_EQ(cold.cache_misses, kFixtureSources + 2);

  const AnalyzeResult warm = Run();
  ASSERT_FALSE(warm.io_error) << warm.error;
  EXPECT_EQ(warm.cache_hits, kFixtureSources + 2);
  EXPECT_EQ(warm.cache_misses, 0);
}

TEST_F(EngineTest, EditedFileMissesTheCache) {
  Run();
  WriteFile("src/core/sample.cc", Sample() + "\n// touched\n");
  const AnalyzeResult after = Run();
  EXPECT_EQ(after.cache_hits, kFixtureSources - 1);
  EXPECT_EQ(after.cache_misses, 1);
}

TEST_F(EngineTest, SuppressionsApplyAndCountsSplit) {
  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
  EXPECT_EQ(result.findings[0].rule, "into-aliasing");
  EXPECT_EQ(result.findings[0].suppress_reason, "fixture in-place");
  EXPECT_EQ(result.unsuppressed, 0);
  EXPECT_EQ(result.suppressed, 1);
}

TEST_F(EngineTest, UnsuppressedFindingIsCounted) {
  WriteFile("src/core/sample.cc",
            "void F() {\n"
            "  obs::Registry::Get().GetCounter(\"tasfar.sample.count\");\n"
            "  AddInto(sum, t, &sum);\n"
            "}\n");
  const AnalyzeResult result = Run();
  EXPECT_EQ(result.unsuppressed, 1);
  EXPECT_EQ(result.suppressed, 0);
}

TEST_F(EngineTest, ReportsPerFileRulesUnderEveryRoot) {
  fs::create_directories(root_ / "tools" / "gen");
  WriteFile("bench/gen.cc", "int Draw() { return std::rand(); }\n");
  WriteFile("tools/gen/gen.h", "#ifndef GEN_H\n#define GEN_H\n#endif\n");
  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  EXPECT_EQ(result.files_scanned, kFixtureSources + 2);
  ASSERT_EQ(result.unsuppressed, 2);
  std::vector<std::string> got;
  for (const Finding& f : result.findings) {
    if (!f.suppressed) got.push_back(f.file + ":" + f.rule);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"bench/gen.cc:rng-discipline",
                                           "tools/gen/gen.h:header-guard"}));
}

TEST_F(EngineTest, RegistryIgnoresNamesRegisteredOutsideSrc) {
  WriteFile("tests/only_test.cc",
            "void F() {\n"
            "  obs::Registry::Get().GetCounter(\"tasfar.test.only\");\n"
            "}\n");
  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  EXPECT_EQ(result.unsuppressed, 0);
}

TEST_F(EngineTest, MissingScanRootIsAnIoError) {
  fs::remove_all(root_ / "examples");
  const AnalyzeResult result = Run();
  EXPECT_TRUE(result.io_error);
  EXPECT_NE(result.error.find("examples"), std::string::npos);
}

TEST_F(EngineTest, FormerLintFindingSurvivesTheCache) {
  WriteFile("src/core/draw.cc", "int Draw() { return std::rand(); }\n");
  const AnalyzeResult cold = Run();
  ASSERT_FALSE(cold.io_error) << cold.error;
  const AnalyzeResult warm = Run();
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.findings, cold.findings);
  EXPECT_EQ(warm.unsuppressed, 1);
  int rng = 0;
  for (const Finding& f : warm.findings) {
    if (f.rule == "rng-discipline" && f.file == "src/core/draw.cc") ++rng;
  }
  EXPECT_EQ(rng, 1);
}

TEST_F(EngineTest, AllowDoesNotSuppressFormerLintRules) {
  WriteFile("src/core/draw.cc",
            "// TASFAR_ANALYZE_ALLOW(rng-discipline): not accepted\n"
            "int Draw() { return std::rand(); }\n");
  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  EXPECT_EQ(result.unsuppressed, 1);
  EXPECT_EQ(result.suppressed, 1);  // The sample's into-aliasing ALLOW.
  for (const Finding& f : result.findings) {
    EXPECT_FALSE(f.rule == "rng-discipline" && f.suppressed);
  }
}

// --- rule scope -------------------------------------------------------------

TEST(RuleScopeTest, ParallelCaptureAppliesOnlyUnderSrc) {
  const std::string source =
      "void F() {\n"
      "  ParallelFor(0, n, 1, [&](size_t i) { total += x[i]; });\n"
      "}\n";
  EXPECT_EQ(Rules(FileFindings("src/core/fixture.cc", source)),
            std::vector<std::string>{"parallel-capture"});
  EXPECT_TRUE(FileFindings("tests/core/fixture_test.cc", source).empty());
}

TEST(RuleScopeTest, RuleIdsCoverEveryRule) {
  const std::vector<std::string> expected = {
      "check-not-assert",     "estimator-discipline", "header-guard",
      "into-aliasing",        "memory-discipline",    "no-iostream",
      "parallel-capture",     "protocol-doc-sync",    "registry-consistency",
      "rng-discipline",       "seed-discipline",      "simd-discipline",
      "thread-discipline",    "timing-discipline",    "workspace-escape"};
  EXPECT_EQ(AnalyzerRuleIds(), expected);
  const std::string sarif = ToSarif({});
  for (const std::string& id : expected) {
    EXPECT_NE(sarif.find("{\"id\": \"" + id + "\"}"), std::string::npos)
        << id;
  }
}

// --- SARIF ------------------------------------------------------------------

TEST(SarifTest, EmitsResultsAndSuppressions) {
  Finding open;
  open.file = "src/a.cc";
  open.line = 3;
  open.rule = "into-aliasing";
  open.message = "dest aliases \"input\"";
  Finding closed = open;
  closed.line = 9;
  closed.suppressed = true;
  closed.suppress_reason = "documented in-place";
  const std::string sarif = ToSarif({open, closed});
  EXPECT_NE(sarif.find("\"tasfar-analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"into-aliasing\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("dest aliases \\\"input\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\""), std::string::npos);
  EXPECT_NE(sarif.find("documented in-place"), std::string::npos);
  // Exactly one result is suppressed.
  size_t count = 0;
  for (size_t at = sarif.find("\"suppressions\""); at != std::string::npos;
       at = sarif.find("\"suppressions\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(SarifTest, EmptyFindingsStillValidShape) {
  const std::string sarif = ToSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
}

}  // namespace
}  // namespace tasfar::analyze
