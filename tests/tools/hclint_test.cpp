// Fixture-driven tests for tools/hclint: every violation class the linter
// knows is seeded in exactly one file under tests/fixtures/hclint/, and the
// scanner must flag it — while staying silent on the real src/, tools/ and
// examples/ trees.
//
// Fixtures are linted one file at a time, so each file's count of findings
// is its own.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace hclint {
namespace {

std::vector<Issue> lint_fixture(const std::string& name) {
  return lint_paths({std::string(HCLINT_FIXTURE_DIR) + "/" + name});
}

bool has_rule(const std::vector<Issue>& issues, const std::string& rule) {
  for (const Issue& i : issues)
    if (i.rule == rule) return true;
  return false;
}

std::size_t count_rule(const std::vector<Issue>& issues,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Issue& i : issues)
    if (i.rule == rule) ++n;
  return n;
}

// ---- the real tree is clean ----

TEST(HclintRealTree, GatedTreeIsClean) {
  // What CI's lint step gates: src/, tools/ and examples/.
  const std::string src = HCLINT_SRC_DIR;
  const std::vector<Issue> issues =
      lint_paths({src, src + "/../tools", src + "/../examples"});
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
}

TEST(HclintRealTree, BinaryExitsZeroOnSrc) {
  const std::string cmd =
      std::string(HCLINT_BIN) + " " + HCLINT_SRC_DIR + " > /dev/null 2>&1";
  EXPECT_EQ(0, std::system(cmd.c_str()));
}

TEST(HclintRealTree, BinaryExitsNonZeroOnSeededViolation) {
  const std::string cmd = std::string(HCLINT_BIN) + " " + HCLINT_FIXTURE_DIR +
                          "/rand_in_src.cpp > /dev/null 2>&1";
  EXPECT_NE(0, std::system(cmd.c_str()));
}

TEST(HclintRealTree, NoWaiversInSrc) {
  // The stale-waiver audit: src/ carries zero waivers today, and any new
  // one must suppress a real finding (waiver-unused) — this pins the
  // "zero waivers" baseline the thread-safety acceptance relies on.
  const LintResult result = lint_paths_full({HCLINT_SRC_DIR});
  EXPECT_TRUE(result.waivers.empty()) << format_waivers(result.waivers);
}

TEST(HclintRealTree, BinaryFailsOnInjectedLayerBackEdge) {
  const std::string cmd = std::string(HCLINT_BIN) + " " + HCLINT_FIXTURE_DIR +
                          "/src/core/layer_backedge.cpp > /dev/null 2>&1";
  EXPECT_NE(0, std::system(cmd.c_str()));
}

TEST(HclintRealTree, BinaryReportWaiversExitsZero) {
  // --report-waivers is a report, not a gate: exits 0 even when the
  // scanned file's waiver inventory is non-empty.
  const std::string cmd = std::string(HCLINT_BIN) + " --report-waivers " +
                          HCLINT_FIXTURE_DIR +
                          "/suppressed_rand.cpp > /dev/null 2>&1";
  EXPECT_EQ(0, std::system(cmd.c_str()));
}

// ---- one fixture per violation class ----

TEST(HclintFixtures, RandInSrc) {
  const auto issues = lint_fixture("rand_in_src.cpp");
  EXPECT_TRUE(has_rule(issues, "no-rand")) << format_issues(issues);
  EXPECT_EQ(1u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, WallClock) {
  const auto issues = lint_fixture("wall_clock.cpp");
  EXPECT_EQ(2u, count_rule(issues, "no-wall-clock")) << format_issues(issues);
  EXPECT_EQ(2u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, NakedNewAndDelete) {
  const auto issues = lint_fixture("naked_new.cpp");
  EXPECT_EQ(1u, count_rule(issues, "no-naked-new")) << format_issues(issues);
  EXPECT_EQ(1u, count_rule(issues, "no-naked-delete")) << format_issues(issues);
  // "= delete" / "= default" must not be flagged.
  EXPECT_EQ(2u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, DcheckSideEffect) {
  const auto issues = lint_fixture("dcheck_side_effect.cpp");
  EXPECT_TRUE(has_rule(issues, "dcheck-side-effect")) << format_issues(issues);
  EXPECT_EQ(1u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, AllowCommentSuppresses) {
  const auto issues = lint_fixture("suppressed_rand.cpp");
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
}

TEST(HclintFixtures, DenseIdHeapMapInCore) {
  // The fixture lives under .../src/core/ so the path gate puts it in
  // scope. Four NodeId-keyed containers are flagged; uint64-keyed maps,
  // NodeIdSet and the waived line are not.
  const auto issues = lint_fixture("src/core/dense_id_heap_map.cpp");
  EXPECT_EQ(4u, count_rule(issues, "dense-id-no-heap-map"))
      << format_issues(issues);
  EXPECT_EQ(4u, issues.size()) << format_issues(issues);
}

TEST(HclintScanner, DenseIdRuleScopedToCore) {
  // The same text outside src/core/ is none of the rule's business (other
  // layers may keep NodeId-keyed heap maps until they migrate).
  const std::vector<SourceFile> files = {
      {"src/dht/store.h", "std::unordered_map<NodeId, int> by_node;\n"}};
  EXPECT_TRUE(lint_files(files).empty());
}

TEST(HclintFixtures, MetricDuplicateName) {
  const auto issues = lint_fixture("metric_duplicate.cpp");
  EXPECT_EQ(1u, count_rule(issues, "obs-metric-registered"))
      << format_issues(issues);
  EXPECT_EQ(1u, issues.size()) << format_issues(issues);
}

TEST(HclintScanner, MetricDuplicateAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"a.h", "HCUBE_METRIC(kA, \"net.messages\");"},
      {"b.h", "HCUBE_METRIC(kB, \"net.messages\");"}};
  const auto issues = lint_files(files);
  EXPECT_EQ(1u, count_rule(issues, "obs-metric-registered"))
      << format_issues(issues);
  EXPECT_EQ("b.h", issues.at(0).file);
}

TEST(HclintScanner, MetricNameMustBeLiteral) {
  const std::vector<SourceFile> files = {
      {"a.h", "HCUBE_METRIC(kA, kSomeOtherName);"}};
  EXPECT_TRUE(has_rule(lint_files(files), "obs-metric-registered"));
}

// ---- v2 rule families ----

TEST(HclintFixtures, LayeringBackEdge) {
  const auto issues = lint_fixture("src/core/layer_backedge.cpp");
  EXPECT_EQ(1u, count_rule(issues, "layering-acyclic-includes"))
      << format_issues(issues);
  EXPECT_EQ(1u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, LayeringBackEdgeWaived) {
  const auto issues = lint_fixture("src/core/layer_backedge_waived.cpp");
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
}

TEST(HclintScanner, SameLayerIncludeCycleFlagged) {
  // net (3) <-> sim (3): legal individually, a cycle together. Both
  // include sites are flagged.
  const std::vector<SourceFile> files = {
      {"src/net/a.h", "#include \"sim/b.h\"\n"},
      {"src/sim/b.h", "#include \"net/a.h\"\n"}};
  const auto issues = lint_files(files);
  EXPECT_EQ(2u, count_rule(issues, "layering-acyclic-includes"))
      << format_issues(issues);
}

TEST(HclintScanner, SameLayerAcyclicIncludeIsFine) {
  const std::vector<SourceFile> files = {
      {"src/net/a.h", "#include \"sim/b.h\"\n"},
      {"src/obs/c.h", "#include \"analysis/d.h\"\n"}};
  EXPECT_TRUE(lint_files(files).empty());
}

TEST(HclintScanner, LayeringIgnoresFilesOutsideSrc) {
  // tools/ and tests/ may include anything; only src/ modules are ranked.
  const std::vector<SourceFile> files = {
      {"tools/bench.cpp", "#include \"chaos/engine.h\"\n"}};
  EXPECT_TRUE(lint_files(files).empty());
}

TEST(HclintFixtures, SharedStateAnnotated) {
  const auto issues = lint_fixture("src/sim/shared_state.cpp");
  EXPECT_EQ(3u, count_rule(issues, "shared-state-annotated"))
      << format_issues(issues);
  EXPECT_EQ(3u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, SharedStateAnnotatedOrWaivedIsQuiet) {
  const auto issues = lint_fixture("src/sim/shared_state_waived.cpp");
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
}

TEST(HclintScanner, SharedStateScopedToSrc) {
  // The same text outside a src/ tree is out of scope (tests and tools
  // keep their local statics).
  const std::vector<SourceFile> files = {
      {"tests/helper.cpp", "static int g_counter = 0;\n"}};
  EXPECT_TRUE(lint_files(files).empty());
}

TEST(HclintFixtures, DigestNondeterminism) {
  const auto issues = lint_fixture("src/obs/digest_nondet.cpp");
  EXPECT_EQ(2u, count_rule(issues, "digest-nondeterminism"))
      << format_issues(issues);
  EXPECT_EQ(2u, issues.size()) << format_issues(issues);
}

TEST(HclintFixtures, DigestNondeterminismWaived) {
  const auto issues = lint_fixture("src/obs/digest_nondet_waived.cpp");
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
}

TEST(HclintFixtures, StaleWaiverFlagged) {
  const auto issues = lint_fixture("stale_waiver.cpp");
  EXPECT_EQ(1u, count_rule(issues, "waiver-unused")) << format_issues(issues);
  EXPECT_EQ(1u, issues.size()) << format_issues(issues);
}

TEST(HclintScanner, WaiverUsageTrackedPerLine) {
  // Line 1's waiver suppresses a real finding; line 2's suppresses
  // nothing and is flagged as stale.
  const std::vector<SourceFile> files = {
      {"f.cpp",
       "int a = std::rand();  // hclint: allow(no-rand)\n"
       "int b = 0;  // hclint: allow(no-rand)\n"}};
  const LintResult result = lint_files_full(files);
  EXPECT_EQ(1u, count_rule(result.issues, "waiver-unused"))
      << format_issues(result.issues);
  ASSERT_EQ(2u, result.waivers.size());
  EXPECT_TRUE(result.waivers[0].used);
  EXPECT_FALSE(result.waivers[1].used);
}

TEST(HclintScanner, WaiverMarkerInStringLiteralIsNoWaiver) {
  // The marker is text inside a literal, not a comment: nothing to waive,
  // nothing stale.
  const std::vector<SourceFile> files = {
      {"f.cpp", "const char* s = \"x();  // hclint: allow(no-rand)\";\n"}};
  const LintResult result = lint_files_full(files);
  EXPECT_TRUE(result.issues.empty()) << format_issues(result.issues);
  EXPECT_TRUE(result.waivers.empty()) << format_waivers(result.waivers);
}

// ---- scanner unit tests ----

TEST(HclintStripper, RemovesCommentsAndLiteralBodies) {
  const std::string out = strip_comments_and_strings(
      "int a; // new delete\n/* rand( */ int b = 0;\nconst char* s = "
      "\"std::rand()\";\n");
  EXPECT_EQ(std::string::npos, out.find("new"));
  EXPECT_EQ(std::string::npos, out.find("rand"));
  EXPECT_NE(std::string::npos, out.find("int a;"));
  EXPECT_NE(std::string::npos, out.find("int b = 0;"));
}

TEST(HclintStripper, PreservesLineStructure) {
  const std::string src = "a\n/* x\n y */\nb\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
}

TEST(HclintStripper, HandlesEscapedQuotes) {
  const std::string out =
      strip_comments_and_strings("const char* s = \"a\\\"new\\\"b\"; int x;");
  EXPECT_EQ(std::string::npos, out.find("new"));
  EXPECT_NE(std::string::npos, out.find("int x;"));
}

TEST(HclintScanner, FlagsCompoundAssignmentInDcheck) {
  const std::vector<SourceFile> files = {
      {"f.cpp", "void f(int a) { HCUBE_DCHECK(a += 1); }"}};
  EXPECT_TRUE(has_rule(lint_files(files), "dcheck-side-effect"));
}

TEST(HclintScanner, AcceptsComparisonsInDcheck) {
  const std::vector<SourceFile> files = {
      {"f.cpp",
       "void f(int a, int b) { HCUBE_DCHECK(a == b); HCUBE_DCHECK(a <= b); "
       "HCUBE_DCHECK(a >= b); HCUBE_DCHECK(a != b); }"}};
  EXPECT_TRUE(lint_files(files).empty());
}

}  // namespace
}  // namespace hclint
