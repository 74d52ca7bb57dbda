// Rule families of biosense-analyze. Internal to tools/analyze.
//
// Each rule gets the whole analyzed tree (cross-file by construction)
// and appends findings. Adding a rule = one function here, its
// implementation in the matching rules_*.cpp, a registration line in
// analyzer.cpp, and a must-fire + clean fixture pair under
// tests/analyze/fixtures/ (DESIGN.md §14 walks through it).
#pragma once

#include <string>
#include <vector>

#include "analyzer.hpp"
#include "lexer.hpp"
#include "scanner.hpp"

namespace biosense::analyze {

/// A source file with its lexed tokens and scanned declarations.
struct AnalyzedFile {
  SourceFile src;
  LexedFile lex;
  FileFacts facts;
};

using Tree = std::vector<AnalyzedFile>;
using Findings = std::vector<Finding>;

// --- path scoping helpers (paths are repo-relative, '/'-separated) ----------
bool path_starts_with(const std::string& path, const std::string& prefix);
bool is_header(const std::string& path);
/// "src/noise/sources.hpp" -> "noise"; "" when not under src/.
std::string src_module(const std::string& path);

// --- rule families -----------------------------------------------------------

// Snapshot completeness: member coverage + writer/reader mirror
// (rules `snapshot-coverage`, `snapshot-mirror`, `snapshot-pair`).
void rule_snapshot(const Tree& tree, Findings& out);

// Protocol schema consistency across protocol.hpp and the dispatcher
// registration (rules `proto-schema`, `proto-names`).
void rule_protocol(const Tree& tree, Findings& out);

// Obs instrument naming: literal-only names, kind consistency, no
// cross-module duplicates, claimed prefix per module (rule `obs-name`).
void rule_obs_names(const Tree& tree, Findings& out);

// Ported grep-linter rules 1-8 (see each rule's message for the
// rationale): no-c-rand, no-wallclock-seed, no-std-random-engine,
// raw-unit-literal, no-chrono-in-src, no-batch-return,
// no-bool-fallible, atomic-file-only; plus one-hash (FNV-1a constants
// only in src/common/hash.hpp).
void rule_lint_ported(const Tree& tree, Findings& out);

// Capture hot-loop discipline: no per-pixel accessor calls, heap
// allocation or std::function inside capture_frame_into or
// capture_channel_group definitions under src/neurochip/ (rule
// `neuro-hot-loop`, DESIGN.md §16).
void rule_neuro_hot_loop(const Tree& tree, Findings& out);

}  // namespace biosense::analyze
