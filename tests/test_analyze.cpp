// Self-test of biosense-analyze (tools/analyze, DESIGN.md §14).
//
// Every rule family is proven on a seeded-violation fixture corpus under
// tests/analyze/fixtures/ (each case is a miniature repo tree whose
// paths activate the same scoping as the real one) and on a clean
// control that must produce zero findings. The mutation self-check then
// takes the *clean* snapshot fixture, deletes one member write from
// save_state programmatically, and requires the snapshot rules to fire —
// the analyzer is only trustworthy if breaking an invariant in a known
// way is guaranteed to be caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace {

using biosense::analyze::Finding;
using biosense::analyze::SourceFile;

std::string fixture_root(const std::string& name) {
  return std::string(BIOSENSE_ANALYZE_FIXTURES) + "/" + name;
}

std::vector<Finding> analyze_fixture(const std::string& name) {
  return biosense::analyze::analyze(
      biosense::analyze::load_tree(fixture_root(name)));
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool has_finding(const std::vector<Finding>& findings, const std::string& rule,
                 const std::string& message_substr) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule &&
           f.message.find(message_substr) != std::string::npos;
  });
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += biosense::analyze::format_finding(f) + "\n";
  }
  return out;
}

TEST(AnalyzeSnapshot, SeededViolationsFire) {
  const auto findings = analyze_fixture("snapshot_bad");
  EXPECT_TRUE(has_finding(findings, "snapshot-coverage", "'gain_'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "snapshot-coverage", "stale"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "snapshot-coverage", "bare"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "snapshot-pair", "'HalfOpen'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "snapshot-mirror", "'Skewed'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "snapshot-mirror", "'Longer'"))
      << dump(findings);
}

TEST(AnalyzeSnapshot, CleanControlIsClean) {
  const auto findings = analyze_fixture("snapshot_clean");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

// Satellite self-check: mutate the clean fixture by dropping one member
// write from save_state; snapshot-coverage (the member vanishes from the
// save hook) and snapshot-mirror (the sequences now differ in length)
// must both fire. A rule that cannot catch a seeded single-line deletion
// would be decorative.
TEST(AnalyzeSnapshot, MutationDroppedWriteIsCaught) {
  auto files = biosense::analyze::load_tree(fixture_root("snapshot_clean"));
  ASSERT_TRUE(biosense::analyze::analyze(files).empty());

  bool mutated = false;
  for (SourceFile& f : files) {
    const std::size_t pos = f.content.find("w.f64(gain_);");
    if (pos == std::string::npos) continue;
    const std::size_t line_start = f.content.rfind('\n', pos) + 1;
    const std::size_t line_end = f.content.find('\n', pos);
    ASSERT_NE(line_end, std::string::npos);
    f.content.erase(line_start, line_end - line_start + 1);
    mutated = true;
  }
  ASSERT_TRUE(mutated) << "fixture no longer contains the seeded write";

  const auto findings = biosense::analyze::analyze(files);
  EXPECT_TRUE(has_finding(findings, "snapshot-coverage", "'gain_'"))
      << dump(findings);
  EXPECT_GE(count_rule(findings, "snapshot-mirror"), 1) << dump(findings);
}

TEST(AnalyzeProtocol, SeededViolationsFire) {
  const auto findings = analyze_fixture("proto_bad");
  EXPECT_TRUE(has_finding(findings, "proto-schema", "'kClash' reuses wire"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-schema", "'kOrphan' has no"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-schema", "'kQuery' has 2"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-schema", "unknown command 'kGhost'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-caps", "'kCapUnused'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-names", "'kOrphan'"))
      << dump(findings);
  // A telemetry command added to the enum but wired nowhere else must
  // trip both the schema-table and the name-switch coverage.
  EXPECT_TRUE(has_finding(findings, "proto-schema",
                          "'kGetMetrics' has no dispatcher schema entry"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "proto-names", "'kGetMetrics'"))
      << dump(findings);
}

TEST(AnalyzeProtocol, CleanControlIsClean) {
  const auto findings = analyze_fixture("proto_clean");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(AnalyzeObs, SeededViolationsFire) {
  const auto findings = analyze_fixture("obs_bad");
  EXPECT_GE(count_rule(findings, "obs-name"), 9) << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "one instrument kind"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "unique across modules"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "not a lowercase dotted"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "'zzz.' is not claimed"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "claimed by another"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "string literal"))
      << dump(findings);
  // The flight macros join the same namespace: a flight event colliding
  // with a counter is a kind conflict, and both macros obey the literal
  // and claimed-prefix rules.
  EXPECT_TRUE(has_finding(findings, "obs-name", "as BIOSENSE_FLIGHT here"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name", "'yyy.' is not claimed"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "obs-name",
                          "BIOSENSE_FLIGHT_TO name must be a string literal"))
      << dump(findings);
}

TEST(AnalyzeObs, CleanControlIsClean) {
  const auto findings = analyze_fixture("obs_clean");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(AnalyzeLint, SeededViolationsFire) {
  const auto findings = analyze_fixture("lint_bad");
  EXPECT_GE(count_rule(findings, "no-c-rand"), 2) << dump(findings);
  EXPECT_EQ(count_rule(findings, "no-wallclock-seed"), 1) << dump(findings);
  EXPECT_EQ(count_rule(findings, "no-std-random-engine"), 2)
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "raw-unit-literal", "'v_ref'"))
      << dump(findings);
  EXPECT_EQ(count_rule(findings, "raw-unit-literal"), 1) << dump(findings);
  EXPECT_EQ(count_rule(findings, "no-chrono-in-src"), 1) << dump(findings);
  EXPECT_TRUE(has_finding(findings, "no-batch-return", "'capture_all'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "no-bool-fallible", "'send_command'"))
      << dump(findings);
  EXPECT_EQ(count_rule(findings, "no-bool-fallible"), 1) << dump(findings);
  EXPECT_EQ(count_rule(findings, "atomic-file-only"), 1) << dump(findings);
  // Decimal offset basis, hex prime, separated hex published basis.
  EXPECT_EQ(count_rule(findings, "one-hash"), 3) << dump(findings);
}

TEST(AnalyzeLint, CleanControlHonorsEscapes) {
  const auto findings = analyze_fixture("lint_clean");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(AnalyzeNeuro, SeededViolationsFire) {
  const auto findings = analyze_fixture("neuro_bad");
  // Accessor surface: pixel(), calibrate(), sample(), read_current(),
  // elapse() — one finding each.
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'pixel(...)'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'calibrate(...)'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'sample(...)'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'read_current(...)'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'elapse(...)'"))
      << dump(findings);
  // Heap traffic: new, make_unique<...>(), push_back().
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'new'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'make_unique(...)'"))
      << dump(findings);
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "'push_back(...)'"))
      << dump(findings);
  // Type-erased indirection.
  EXPECT_TRUE(has_finding(findings, "neuro-hot-loop", "std::function"))
      << dump(findings);
  EXPECT_GE(count_rule(findings, "neuro-hot-loop"), 9) << dump(findings);
}

TEST(AnalyzeNeuro, CleanControlHonorsEscape) {
  const auto findings = analyze_fixture("neuro_clean");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

// The guard must hold on the real tree, not just fixtures: the actual
// capture kernel keeps its hot loop on the prepared plane API, so the
// rule reports nothing for src/neurochip/ (checked indirectly by
// test_repo_invariants, which analyzes the live repo).

// The corpus as a whole seeds at least a dozen violations, and every
// violation carries a rule name that exists in the catalogue.
TEST(AnalyzeCorpus, SeedsAtLeastTwelveViolationsAllCatalogued) {
  std::set<std::string> catalogued;
  for (const auto& [name, description] : biosense::analyze::rule_catalogue()) {
    EXPECT_FALSE(description.empty()) << name;
    catalogued.insert(name);
  }
  std::size_t total = 0;
  for (const char* corpus :
       {"snapshot_bad", "proto_bad", "obs_bad", "lint_bad", "neuro_bad"}) {
    const auto findings = analyze_fixture(corpus);
    total += findings.size();
    for (const Finding& f : findings) {
      EXPECT_TRUE(catalogued.count(f.rule) > 0)
          << f.rule << " missing from rule_catalogue()";
    }
  }
  EXPECT_GE(total, 12u);
}

TEST(AnalyzeFormat, FindingLineIsClickable) {
  const Finding f{"src/a/b.hpp", 42, "some-rule", "what went wrong"};
  EXPECT_EQ(biosense::analyze::format_finding(f),
            "src/a/b.hpp:42: some-rule: what went wrong");
}

TEST(AnalyzeLoadTree, RejectsRootsWithoutSrc) {
  EXPECT_THROW(biosense::analyze::load_tree(fixture_root("does_not_exist")),
               std::runtime_error);
}

}  // namespace
