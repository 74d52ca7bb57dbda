// The old grep linter's rules 1-8, ported onto the token stream
// (DESIGN.md §14), plus the `one-hash` literal check.
//
// Same invariants, same escape comments (`lint:allow-*`), but checked
// over tokens instead of raw lines: string literals and comments can no
// longer produce false positives, and each rule is exercised by a
// must-fire fixture + clean control under tests/analyze/fixtures/,
// which the bash greps never were.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "rules.hpp"

namespace biosense::analyze {
namespace {

using Tokens = std::vector<Token>;

bool ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// rule 1: C rand()/srand() — not reproducible across libcs, poor
/// statistics; all randomness flows through common/rng.hpp (Rng).
void no_c_rand(const AnalyzedFile& f, Findings& out) {
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const bool zero_arg_rand = ident(t[i], "rand") && punct(t[i + 1], "(") &&
                               i + 2 < t.size() && punct(t[i + 2], ")");
    const bool any_srand = ident(t[i], "srand") && punct(t[i + 1], "(");
    if (zero_arg_rand || any_srand) {
      out.push_back(Finding{f.src.path, t[i].line, "no-c-rand",
                            "C " + t[i].text +
                                "() is banned; use common/rng.hpp (Rng)"});
    }
  }
}

/// rule 2: wall-clock seeding makes runs unreproducible.
void no_wallclock_seed(const AnalyzedFile& f, Findings& out) {
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!ident(t[i], "time") || !punct(t[i + 1], "(")) continue;
    const Token& arg = t[i + 2];
    const bool null_arg = ident(arg, "NULL") || ident(arg, "nullptr") ||
                          (arg.kind == TokenKind::kNumber && arg.text == "0");
    if (null_arg && punct(t[i + 3], ")")) {
      out.push_back(Finding{f.src.path, t[i].line, "no-wallclock-seed",
                            "wall-clock seeding (time(" + arg.text +
                                ")) is banned; seeds are explicit"});
    }
  }
}

/// rule 3: nondeterministic / default-seeded standard-library engines.
void no_std_random_engine(const AnalyzedFile& f, Findings& out) {
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (ident(t[i], "random_device")) {
      out.push_back(Finding{f.src.path, t[i].line, "no-std-random-engine",
                            "std::random_device bypasses the Rng "
                            "discipline (nondeterministic)"});
      continue;
    }
    if (!(ident(t[i], "mt19937") || ident(t[i], "mt19937_64"))) continue;
    const bool default_decl = i + 2 < t.size() &&
                              t[i + 1].kind == TokenKind::kIdentifier &&
                              punct(t[i + 2], ";");
    const bool empty_ctor =
        i + 2 < t.size() && punct(t[i + 1], "(") && punct(t[i + 2], ")");
    if (default_decl || empty_ctor) {
      out.push_back(Finding{f.src.path, t[i].line, "no-std-random-engine",
                            "unseeded std::" + t[i].text +
                                " bypasses the Rng discipline"});
    }
  }
}

/// rule 4: raw unit-suffixed magic numbers in typed config headers.
bool in_typed_header_scope(const std::string& path) {
  static const char* const kDirs[] = {"src/i2f/", "src/dnachip/",
                                      "src/neurochip/", "src/circuit/",
                                      "src/noise/"};
  static const char* const kFiles[] = {
      "src/dna/electrochemistry.hpp", "src/dna/labelfree.hpp",
      "src/core/dna_workbench.hpp", "src/core/neural_workbench.hpp"};
  if (!is_header(path)) return false;
  for (const char* d : kDirs) {
    if (path_starts_with(path, d)) return true;
  }
  return std::any_of(std::begin(kFiles), std::end(kFiles),
                     [&](const char* p) { return path == p; });
}

bool comment_names_unit(const LexedFile& lex, int line) {
  static const std::set<std::string> kUnits = {
      "V",  "mV",   "uV",  "A",  "mA",  "uA", "nA", "pA", "fA", "F",
      "uF", "nF",   "pF",  "fF", "s",   "ms", "us", "ns", "Hz", "kHz",
      "MHz", "Ohm", "kOhm", "MOhm", "m", "um", "nm", "M",  "mM", "uM",
      "nM", "pM"};
  for (const Comment& c : lex.comments) {
    if (c.line != line) continue;
    std::size_t i = 0;
    while (i < c.text.size() && (c.text[i] == ' ' || c.text[i] == '(')) ++i;
    std::size_t j = i;
    while (j < c.text.size() &&
           (std::isalnum(static_cast<unsigned char>(c.text[j])))) {
      ++j;
    }
    if (j == i) continue;
    const std::string word = c.text.substr(i, j - i);
    const char next = (j < c.text.size()) ? c.text[j] : ' ';
    if (kUnits.count(word) > 0 &&
        (next == ' ' || next == ',' || next == ')' || next == '.')) {
      return true;
    }
  }
  return false;
}

void raw_unit_literal(const AnalyzedFile& f, Findings& out) {
  if (!in_typed_header_scope(f.src.path)) return;
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (!ident(t[i], "double") || t[i + 1].kind != TokenKind::kIdentifier ||
        !punct(t[i + 2], "=") || t[i + 3].kind != TokenKind::kNumber ||
        !punct(t[i + 4], ";")) {
      continue;
    }
    const double value = std::strtod(t[i + 3].text.c_str(), nullptr);
    if (value == 0.0) continue;
    const int line = t[i + 4].line;
    if (!comment_names_unit(f.lex, line)) continue;
    if (line_has_marker(f.lex, line, "lint:allow-raw-unit")) continue;
    out.push_back(Finding{
        f.src.path, t[i + 1].line, "raw-unit-literal",
        "raw unit-suffixed magic number initializing '" + t[i + 1].text +
            "' in a typed config header; use a Quantity literal (e.g. "
            "1.0_mV) or annotate lint:allow-raw-unit"});
  }
}

/// rule 5: ad-hoc wall-clock timing in library code — obs::now_ns /
/// BIOSENSE_SPAN / obs::PhaseTimer are the sanctioned clocks.
void no_chrono_in_src(const AnalyzedFile& f, Findings& out) {
  if (!path_starts_with(f.src.path, "src/") ||
      path_starts_with(f.src.path, "src/obs/")) {
    return;
  }
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (ident(t[i], "std") && punct(t[i + 1], "::") &&
        ident(t[i + 2], "chrono") && punct(t[i + 3], "::") &&
        (ident(t[i + 4], "steady_clock") || ident(t[i + 4], "system_clock") ||
         ident(t[i + 4], "high_resolution_clock"))) {
      out.push_back(Finding{f.src.path, t[i].line, "no-chrono-in-src",
                            "std::chrono::" + t[i + 4].text +
                                " in src/ is banned outside src/obs/; use "
                                "obs::now_ns / BIOSENSE_SPAN / "
                                "obs::PhaseTimer"});
    }
  }
}

/// rule 6: collect-all frame APIs in src/ headers — new acquisition APIs
/// take a StreamSink; only tagged batch compat wrappers may return the
/// full vector.
void no_batch_return(const AnalyzedFile& f, Findings& out) {
  if (!path_starts_with(f.src.path, "src/") || !is_header(f.src.path)) return;
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 5 < t.size(); ++i) {
    if (!(ident(t[i], "std") && punct(t[i + 1], "::") &&
          ident(t[i + 2], "vector") && punct(t[i + 3], "<"))) {
      continue;
    }
    std::size_t j = i + 4;
    if (j + 1 < t.size() && ident(t[j], "neurochip") &&
        punct(t[j + 1], "::")) {
      j += 2;
    }
    if (j + 3 >= t.size() || !ident(t[j], "NeuroFrame") ||
        !punct(t[j + 1], ">") || t[j + 2].kind != TokenKind::kIdentifier ||
        !punct(t[j + 3], "(")) {
      continue;
    }
    const int line = t[j + 2].line;
    if (line_has_marker(f.lex, line, "lint:allow-batch-return")) continue;
    out.push_back(Finding{
        f.src.path, line, "no-batch-return",
        "'" + t[j + 2].text + "' returns std::vector<NeuroFrame>; take a "
            "StreamSink<NeuroFrame>& (common/stream.hpp) or tag a "
            "documented compat wrapper with lint:allow-batch-return"});
  }
}

/// rule 7: bool-returning fallible APIs in src/host/ headers — the host
/// error convention is Result<T, HostStatus> (DESIGN.md §12).
void no_bool_fallible(const AnalyzedFile& f, Findings& out) {
  if (!path_starts_with(f.src.path, "src/host/") || !is_header(f.src.path)) {
    return;
  }
  static const std::set<std::string> kPredicates = {"ok",     "exhausted",
                                                    "empty",  "closed",
                                                    "any",    "decoded"};
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!ident(t[i], "bool") || t[i + 1].kind != TokenKind::kIdentifier ||
        !punct(t[i + 2], "(")) {
      continue;
    }
    const std::string& name = t[i + 1].text;
    if (name.rfind("is_", 0) == 0 || name.rfind("has_", 0) == 0 ||
        kPredicates.count(name) > 0) {
      continue;
    }
    const int line = t[i + 1].line;
    if (line_has_marker(f.lex, line, "lint:allow-bool")) continue;
    out.push_back(Finding{
        f.src.path, line, "no-bool-fallible",
        "bool-returning fallible API '" + name + "' in a src/host/ header; "
            "return Result<T, HostStatus> (common/result.hpp, DESIGN.md "
            "§12) or, for a genuine single-bit fact, annotate "
            "lint:allow-bool"});
  }
}

/// rule 8: raw file writes in src/snapshot/ outside atomic_file.cpp —
/// checkpoint bytes go through the crash-safe write-temp-then-rename
/// protocol or a torn file is only rejectable, not recoverable.
void atomic_file_only(const AnalyzedFile& f, Findings& out) {
  if (!path_starts_with(f.src.path, "src/snapshot/") ||
      f.src.path == "src/snapshot/atomic_file.cpp") {
    return;
  }
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool raw_io =
        ident(t[i], "fopen") || ident(t[i], "ofstream") ||
        ident(t[i], "fstream") ||
        (ident(t[i], "FILE") && i > 0 && punct(t[i - 1], "::"));
    if (raw_io) {
      out.push_back(Finding{
          f.src.path, t[i].line, "atomic-file-only",
          "raw file I/O ('" + t[i].text + "') in src/snapshot/ is banned "
              "outside atomic_file.cpp; use write_file_atomic / "
              "CheckpointStore (crash-safe write-temp-then-rename)"});
    }
  }
}

/// one-hash: FNV-1a lives in src/common/hash.hpp, so its offset basis or
/// prime spelled anywhere else (decimal or hex, any suffix or digit
/// separators) is a hand-rolled copy of the hash.
void one_hash(const AnalyzedFile& f, Findings& out) {
  if (f.src.path == "src/common/hash.hpp") return;
  // Assembled from halves so this file does not spell them either.
  static const std::set<std::uint64_t> kFnvConstants = {
      (std::uint64_t{0x14650fb0} << 32) | 0x739d0383u,  // repo offset basis
      (std::uint64_t{0xcbf29ce4} << 32) | 0x84222325u,  // published basis
      (std::uint64_t{1} << 40) | 0x1b3u,                // 64-bit prime
  };
  for (const Token& tok : f.lex.tokens) {
    if (tok.kind != TokenKind::kNumber) continue;
    std::string digits;
    for (char c : tok.text) {
      if (c != '\'') digits.push_back(c);
    }
    char* end = nullptr;
    const unsigned long long value = std::strtoull(digits.c_str(), &end, 0);
    const bool integer_literal =
        std::all_of(static_cast<const char*>(end),
                    digits.c_str() + digits.size(), [](char c) {
                      return c == 'u' || c == 'U' || c == 'l' || c == 'L';
                    });
    if (!integer_literal || kFnvConstants.count(value) == 0) continue;
    out.push_back(Finding{
        f.src.path, tok.line, "one-hash",
        "FNV-1a constant '" + tok.text + "' outside src/common/hash.hpp; "
            "fold through biosense::fnv1a (common/hash.hpp)"});
  }
}

}  // namespace

void rule_lint_ported(const Tree& tree, Findings& out) {
  for (const AnalyzedFile& f : tree) {
    no_c_rand(f, out);
    no_wallclock_seed(f, out);
    no_std_random_engine(f, out);
    raw_unit_literal(f, out);
    no_chrono_in_src(f, out);
    no_batch_return(f, out);
    no_bool_fallible(f, out);
    atomic_file_only(f, out);
    one_hash(f, out);
  }
}

}  // namespace biosense::analyze
