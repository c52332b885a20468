// Tests for tools/lint: the dice_lint analyzer itself.
//
// Two layers: unit tests drive LintFiles on in-memory sources (one per
// detection mechanism — token checks, alias/name tracking, suppressions,
// declaration matching, comment/string blanking); the fixture test runs
// RunLint over tools/testdata/lint/ — a mini repo of known-bad and known-good
// files — and asserts the exact findings. The exit-code contract of the
// binary is covered by ctest cases registered in tools/CMakeLists.txt
// (lint_fixture_violations is WILL_FAIL; lint_repo_clean must pass).

#include "tools/lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dice::lint {
namespace {

// (file, line, check) triples, sorted — message wording is not contract.
std::vector<std::string> Sites(const LintReport& report) {
  std::vector<std::string> out;
  for (const Finding& f : report.findings) {
    out.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.check);
  }
  return out;
}

LintReport Lint(const std::string& path, const std::string& content) {
  return LintFiles({{path, content}});
}

TEST(LintTokens, FlagsRawRngOutsideRngUtil) {
  LintReport r = Lint("src/foo.cc",
                      "#include <random>\n"
                      "int f() { std::mt19937 g(1); return rand() + g(); }\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.cc:2:raw-rng", "src/foo.cc:2:raw-rng"}));
}

TEST(LintTokens, AllowsRawRngInRngUtil) {
  EXPECT_TRUE(Lint("src/util/rng.cc", "int f() { return rand(); }\n").clean());
}

TEST(LintTokens, RandRequiresCall) {
  // 'rand' as a plain identifier (variable named rand, operand) only counts
  // when invoked; 'strand(' must never match.
  EXPECT_TRUE(Lint("src/foo.cc", "int strand(int x); int g(int rand) { return rand; }\n").clean());
  EXPECT_FALSE(Lint("src/foo.cc", "int g() { return rand(); }\n").clean());
}

TEST(LintTokens, FlagsWallClockOutsideAllowlist) {
  const std::string source = "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(Sites(Lint("src/net/loop.h", source)),
            (std::vector<std::string>{"src/net/loop.h:2:wall-clock"}));
  EXPECT_TRUE(Lint("bench/common.h", source).clean());
  EXPECT_TRUE(Lint("src/dice/baselines.cc", source).clean());
  EXPECT_TRUE(Lint("src/util/logging.cc", source).clean());
}

TEST(LintTokens, WallClockPersistAllowlistIsEnvOnly) {
  // The persistence Env may read the clock (quarantine file timestamps);
  // every other persist file must route time through Env::NowMicros so
  // fault-injection tests fully control it.
  const std::string source = "#include <time.h>\nvoid f() { clock_gettime(0, nullptr); }\n";
  EXPECT_TRUE(Lint("src/persist/env.cc", source).clean());
  EXPECT_EQ(Sites(Lint("src/persist/snapshot_store.cc", source)),
            (std::vector<std::string>{"src/persist/snapshot_store.cc:2:wall-clock"}));
  EXPECT_EQ(Sites(Lint("src/persist/env.h", source)),
            (std::vector<std::string>{"src/persist/env.h:2:wall-clock"}));
}

TEST(LintTokens, WallClockTransportAllowlistIsByFileNotDirectory) {
  // The transport layer touches real time by nature (socket deadlines,
  // reconnect backoff, futex waits, latency counters), but only the four
  // reviewed .cc files — new transport files must either stay clock-free or
  // be added to the allowlist in review. Headers stay clock-free entirely.
  const std::string source = "#include <time.h>\nvoid f() { clock_gettime(0, nullptr); }\n";
  EXPECT_TRUE(Lint("src/transport/stream.cc", source).clean());
  EXPECT_TRUE(Lint("src/transport/shm_ring.cc", source).clean());
  EXPECT_TRUE(Lint("src/transport/server.cc", source).clean());
  EXPECT_TRUE(Lint("src/transport/client.cc", source).clean());
  EXPECT_EQ(Sites(Lint("src/transport/stream.h", source)),
            (std::vector<std::string>{"src/transport/stream.h:2:wall-clock"}));
  EXPECT_EQ(Sites(Lint("src/transport/wire.cc", source)),
            (std::vector<std::string>{"src/transport/wire.cc:2:wall-clock"}));
  EXPECT_EQ(Sites(Lint("src/transport/reactor.cc", source)),
            (std::vector<std::string>{"src/transport/reactor.cc:2:wall-clock"}));
}

TEST(LintTokens, IgnoresTokensInCommentsAndStrings) {
  LintReport r = Lint("src/foo.cc",
                      "// std::mt19937 would be bad here\n"
                      "/* so would steady_clock */\n"
                      "const char* kMsg = \"mt19937 rand() steady_clock\";\n");
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(LintUnordered, FlagsRangeForOverUnorderedLocal) {
  LintReport r = Lint("src/foo.cc",
                      "#include <unordered_map>\n"
                      "int f() {\n"
                      "  std::unordered_map<int, int> m;\n"
                      "  int s = 0;\n"
                      "  for (const auto& [k, v] : m) { s += v; }\n"
                      "  return s;\n"
                      "}\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.cc:5:unordered-iteration"}));
}

TEST(LintUnordered, OnlyAppliesUnderSrc) {
  LintReport r = Lint("examples/demo.cpp",
                      "#include <unordered_map>\n"
                      "void f(std::unordered_map<int, int>& m) { for (auto& kv : m) { (void)kv; } }\n");
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(LintUnordered, TracksAliasesTransitively) {
  LintReport r = Lint("src/foo.cc",
                      "#include <unordered_set>\n"
                      "using IdSet = std::unordered_set<int>;\n"
                      "int f(const IdSet& ids) {\n"
                      "  int s = 0;\n"
                      "  for (int id : ids) { s += id; }\n"
                      "  return s;\n"
                      "}\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.cc:5:unordered-iteration"}));
}

TEST(LintUnordered, TracksMemberNamesAcrossFiles) {
  // The member is declared unordered in the header; the iteration lives in
  // another file and only sees `entry.members`.
  LintReport r = LintFiles({
      {"src/foo.h", "#include <unordered_map>\n"
                    "struct Entry { std::unordered_map<int, int> members; };\n"},
      {"src/bar.cc", "#include \"src/foo.h\"\n"
                     "int f(const Entry& entry) {\n"
                     "  int s = 0;\n"
                     "  for (const auto& [k, v] : entry.members) { s += v; }\n"
                     "  return s;\n"
                     "}\n"},
  });
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/bar.cc:4:unordered-iteration"}));
}

TEST(LintUnordered, FlagsIteratorBeginLoop) {
  LintReport r = Lint("src/foo.cc",
                      "#include <unordered_map>\n"
                      "int f() {\n"
                      "  std::unordered_map<int, int> m;\n"
                      "  int s = 0;\n"
                      "  for (auto it = m.begin(); it != m.end(); ++it) { s += it->second; }\n"
                      "  return s;\n"
                      "}\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.cc:5:unordered-iteration"}));
}

TEST(LintUnordered, BeginOutsideForIsNotIteration) {
  // std::find over an unordered container reads it via begin() but a lookup
  // is order-insensitive by construction; only `for` loops are flagged.
  LintReport r = Lint("src/foo.cc",
                      "#include <algorithm>\n"
                      "#include <unordered_set>\n"
                      "bool f(const std::unordered_set<int>& s) {\n"
                      "  auto copy = s;\n"
                      "  return std::find(copy.begin(), copy.end(), 3) != copy.end();\n"
                      "}\n");
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(LintUnordered, SuppressionOnSameOrPreviousLine) {
  const std::string body =
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  // dice-lint: unordered-iteration-ok(commutative sum)\n"
      "  for (const auto& [k, v] : m) { s += v; }\n"
      "  for (const auto& [k, v] : m) { s += v; }  // dice-lint: unordered-iteration-ok(same)\n"
      "  return s;\n"
      "}\n";
  LintReport r = Lint("src/foo.cc", body);
  EXPECT_TRUE(r.clean()) << r.ToString();
  ASSERT_EQ(r.suppressed.size(), 2u);
  EXPECT_EQ(r.suppressed[0].line, 6u);
  EXPECT_EQ(r.suppressed[0].reason, "commutative sum");
  EXPECT_EQ(r.suppressed[1].line, 7u);
}

TEST(LintUnordered, UnusedSuppressionIsAFinding) {
  LintReport r = Lint("src/foo.cc",
                      "int f() {\n"
                      "  // dice-lint: unordered-iteration-ok(nothing here anymore)\n"
                      "  return 1;\n"
                      "}\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.cc:2:suppression"}));
}

TEST(LintStatus, FlagsMissingNodiscardInHeadersOnly) {
  const std::string decl = "class Status {};\nStatus DoThing();\n";
  EXPECT_EQ(Sites(Lint("src/foo.h", decl)),
            (std::vector<std::string>{"src/foo.h:2:status-nodiscard"}));
  // Definitions in .cc files are not re-annotated.
  EXPECT_TRUE(Lint("src/foo.cc", decl).clean());
}

TEST(LintStatus, AcceptsNodiscardOnSameOrPreviousLine) {
  EXPECT_TRUE(Lint("src/foo.h",
                   "[[nodiscard]] Status DoThing();\n"
                   "[[nodiscard]] static StatusOr<int> Maybe();\n"
                   "[[nodiscard]]\n"
                   "Status AlsoFine();\n")
                  .clean());
}

TEST(LintStatus, IgnoresVariablesReturnsAndConstructors) {
  EXPECT_TRUE(Lint("src/foo.h",
                   "Status status_;\n"
                   "Status s = DoThing();\n"
                   "Status() : code_(0) {}\n"
                   "StatusOr<int> held;\n"
                   "StatusCode CodeName();\n")
                  .clean());
}

TEST(LintStatus, FlagsParseAndDeserializeReturningBoolOrVoid) {
  LintReport r = Lint("src/foo.h",
                      "bool ParseFrame(const char* d, int n);\n"
                      "void DeserializeState(int v);\n"
                      "[[nodiscard]] StatusOr<int> ParseGood(const char* d);\n");
  EXPECT_EQ(Sites(r), (std::vector<std::string>{"src/foo.h:1:parse-returns-status",
                                                "src/foo.h:2:parse-returns-status"}));
}

TEST(LintFixture, ExactFindingsOverFixtureTree) {
  LintOptions options;
  options.root = DICE_LINT_FIXTURE_DIR;
  options.paths = {"src", "bench"};
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(Sites(*report), (std::vector<std::string>{
                                "src/bad_clock.cc:6:wall-clock",
                                "src/bad_clock.cc:7:wall-clock",
                                "src/bad_iter.cc:8:unordered-iteration",
                                "src/bad_rng.cc:6:raw-rng",
                                "src/bad_rng.cc:7:raw-rng",
                                "src/bad_rng.cc:8:raw-rng",
                                "src/bad_status.h:9:status-nodiscard",
                                "src/bad_status.h:10:status-nodiscard",
                                "src/bad_status.h:11:parse-returns-status",
                                "src/bad_status.h:12:parse-returns-status",
                                "src/bad_suppress.cc:4:suppression",
                                "src/bad_suppress.cc:8:suppression",
                                "src/bad_suppress.cc:9:suppression",
                            }));
  ASSERT_EQ(report->suppressed.size(), 1u);
  EXPECT_EQ(report->suppressed[0].file, "src/good_iter.cc");
  EXPECT_EQ(report->suppressed[0].reason, "commutative sum; order cannot be observed");
  EXPECT_EQ(report->files_scanned, 9u);
}

TEST(LintFixture, KnownGoodFilesAreClean) {
  LintOptions options;
  options.root = DICE_LINT_FIXTURE_DIR;
  options.paths = {"src/good_iter.cc", "src/good_status.h", "src/util/rng.h", "bench/timer.cc"};
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(report->suppressed.size(), 1u);
}

TEST(LintFixture, MissingRootIsAnErrorNotAFinding) {
  LintOptions options;
  options.root = std::string(DICE_LINT_FIXTURE_DIR) + "/does-not-exist";
  auto report = RunLint(options);
  EXPECT_FALSE(report.ok());
}

TEST(LintRepo, TransportFilesIntroduceNoFindings) {
  // The transport subsystem crosses the process boundary, which makes it the
  // easiest place to smuggle in nondeterminism (ad-hoc clocks, unordered
  // correlation maps). Pin the directory to zero findings: its sanctioned
  // clock use lives only in the four .cc files named in the allowlist, and
  // everything else must come up clean without suppressions.
  LintOptions options;
  options.root = DICE_REPO_ROOT;
  options.paths = {"src/transport"};
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_GE(report->files_scanned, 14u);  // 7 modules, header + impl each
  EXPECT_TRUE(report->suppressed.empty())
      << "transport code must not need unordered-iteration suppressions";
}

TEST(LintRepo, TraceFilesIntroduceNoFindings) {
  // The trace corpus feeds deterministic replay: a wall clock or unordered
  // map iteration in src/trace would break the bit-identical gen|replay
  // round-trip, so the directory is pinned to zero findings with no
  // suppressions at all.
  LintOptions options;
  options.root = DICE_REPO_ROOT;
  options.paths = {"src/trace"};
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_GE(report->files_scanned, 6u);  // trace, feed, dtrc — header + impl each
  EXPECT_TRUE(report->suppressed.empty())
      << "trace code must not need unordered-iteration suppressions";
}

TEST(LintRepo, RealTreeIsClean) {
  // The ratchet: the shipped tree has zero findings, and every suppressed
  // site carries a reviewed reason. DICE_REPO_ROOT is the source dir.
  LintOptions options;
  options.root = DICE_REPO_ROOT;
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->ToString();
  for (const SuppressedSite& s : report->suppressed) {
    EXPECT_FALSE(s.reason.empty()) << s.file << ":" << s.line;
  }
}

}  // namespace
}  // namespace dice::lint
