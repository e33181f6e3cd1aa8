// Fixture suite for cosched_lint: the tool must flag exactly the known-bad
// snippets and accept the known-good ones (counting their waivers).  Runs
// under the `lint` ctest label next to the tree scan, so a rule regression
// fails CI the same way a rule violation would.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace cosched::lint {
namespace {

#ifndef COSCHED_LINT_FIXTURES
#error "COSCHED_LINT_FIXTURES must point at the fixture directory"
#endif

Report lint_dir(const std::string& sub) {
  Report report;
  std::string error;
  const bool ok =
      lint_paths({std::string(COSCHED_LINT_FIXTURES) + "/" + sub}, report,
                 error);
  EXPECT_TRUE(ok) << error;
  return report;
}

std::set<std::string> rules_hit(const Report& r) {
  std::set<std::string> rules;
  for (const Finding& f : r.findings) rules.insert(f.rule);
  return rules;
}

int count_rule(const Report& r, const std::string& rule) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(CoschedLint, GoodFixturesAreClean) {
  const Report r = lint_dir("good");
  for (const Finding& f : r.findings) ADD_FAILURE() << to_string(f);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, GoodFixturesCountWaivers) {
  const Report r = lint_dir("good");
  // ordered() waivers: the two sort-before-emit sites in unordered.cpp.
  EXPECT_EQ(r.ordered_waivers_used, 2);
  // allow() waivers: the wall-clock banner.
  EXPECT_EQ(r.allow_waivers_used, 1);
  EXPECT_EQ(static_cast<int>(r.waived.size()),
            r.ordered_waivers_used + r.allow_waivers_used);
}

TEST(CoschedLint, BadFixturesAreAllFlagged) {
  const Report r = lint_dir("bad");
  const std::set<std::string> expected = {"banned-call", "unordered-iter"};
  EXPECT_EQ(rules_hit(r), expected);
}

TEST(CoschedLint, BadBannedCallsAllCaught) {
  const Report r = lint_dir("bad");
  // system_clock, srand, rand, time(nullptr) — four separate lines.
  EXPECT_EQ(count_rule(r, "banned-call"), 4);
}

TEST(CoschedLint, BadUnorderedBothForms) {
  const Report r = lint_dir("bad");
  // One range-for and one .begin() iterator range.
  EXPECT_EQ(count_rule(r, "unordered-iter"), 2);
}

TEST(CoschedLint, WholeFixtureTreeSeparatesGoodFromBad) {
  // Good and bad scanned together: declarations must not bleed between
  // same-stem files in a way that flags the good ones.
  const Report r = lint_dir("");
  for (const Finding& f : r.findings)
    EXPECT_NE(f.file.find("/bad/"), std::string::npos) << to_string(f);
}

TEST(CoschedLint, CodeViewStripsCommentsAndStrings) {
  const std::vector<SourceFile> files = {
      {"fake/core/strings.cpp",
       {"const char* msg = \"call rand() and system_clock\";",
        "// a comment mentioning srand and time(nullptr)"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, BannedCallScopedToDeterministicDirs) {
  const std::vector<SourceFile> files = {
      {"fake/net/wallclock.cpp",
       {"long t = std::chrono::system_clock::now().time_since_epoch()"
        ".count();"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());  // net/ may read wall clocks
}

TEST(CoschedLint, AmbiguousAccessorNameIsSkipped) {
  // jobs() returns an unordered_map on one class and a vector on another
  // (Scheduler vs Trace in the real tree).  A textual matcher cannot tell
  // the receivers apart, so the name must be skipped, not flagged.
  const std::vector<SourceFile> files = {
      {"fake/sched/tables.h",
       {"const std::unordered_map<long, long>& jobs() const { return j_; }"}},
      {"fake/workload/trace.h",
       {"const std::vector<long>& jobs() const { return v_; }"}},
      {"fake/core/use.cpp", {"for (const auto& j : trace.jobs()) {"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
}

TEST(CoschedLint, AccessorIterationNeedsWaiver) {
  const std::vector<SourceFile> files = {
      {"fake/core/tables.h",
       {"const std::unordered_map<long, long>& jobs() const { return j_; }"}},
      {"fake/core/use.cpp", {"for (const auto& [id, j] : sched_.jobs()) {"}}};
  const Report r = run_lint(files);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "unordered-iter");
}

TEST(CoschedLint, JsonReportParsesAndIsStable) {
  const Report r = lint_dir("bad");
  const std::string a = to_json(r);
  const std::string b = to_json(lint_dir("bad"));
  EXPECT_EQ(a, b);  // byte-stable across identical runs
  for (const char* key :
       {"\"files_scanned\"", "\"findings\"", "\"waived\"",
        "\"unused_waivers\"", "\"rules\"", "\"unordered-iter\""})
    EXPECT_NE(a.find(key), std::string::npos) << key;
  // Balanced braces/brackets outside strings — cheap structural parse.
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char c = a[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(CoschedLint, UnusedWaiverIsReported) {
  const std::vector<SourceFile> files = {
      {"fake/core/tidy.cpp",
       {"// cosched-lint: allow(banned-call) left over from a deleted line",
        "int x = 1;"}}};
  const Report r = run_lint(files);
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.unused_waivers.size(), 1u);
  EXPECT_EQ(r.unused_waivers[0].rule, "unused-waiver");
  EXPECT_EQ(r.unused_waivers[0].line, 1);
}

}  // namespace
}  // namespace cosched::lint
