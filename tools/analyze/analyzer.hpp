// biosense-analyze: first-party cross-file invariant analyzer
// (DESIGN.md §14).
//
// The analyzer loads every first-party source into memory, lexes and
// scans each one (lexer.hpp / scanner.hpp), then runs a fixed catalogue
// of structural rules over the whole set at once — which is what lets
// it check cross-file invariants a per-line grep never could: a class
// declared in a header against its save_state/load_state defined in a
// .cpp, the HostCommand enum against the dispatcher's schema table, an
// instrument name against every other instrument name in the tree.
//
// Findings are `file:line: rule-name: message`, stable-sorted, and the
// process exits nonzero when any are present — the same contract the
// old grep linter had, so CI and editors keep clickable output.
//
// The library is deliberately separable from file I/O: tests feed
// in-memory SourceFiles (fixture corpora, programmatic mutations of
// real sources) through the same `analyze()` entry point the CLI uses.
#pragma once

#include <string>
#include <vector>

namespace biosense::analyze {

struct SourceFile {
  std::string path;  // repo-relative, '/'-separated (e.g. "src/a/b.hpp")
  std::string content;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Runs every rule over `files` and returns findings sorted by
/// (file, line, rule).
std::vector<Finding> analyze(const std::vector<SourceFile>& files);

/// One output line: "file:line: rule: message".
std::string format_finding(const Finding& f);

/// Rule-name/one-line-description pairs for --list-rules and DESIGN.md.
std::vector<std::pair<std::string, std::string>> rule_catalogue();

/// Loads the first-party tree under `root` (src/, tests/, bench/,
/// examples/, tools/ — *.hpp/*.cpp, excluding tests/analyze/fixtures,
/// which contain deliberate violations). Paths in the result are
/// root-relative. Throws std::runtime_error when `root` has no src/.
std::vector<SourceFile> load_tree(const std::string& root);

}  // namespace biosense::analyze
