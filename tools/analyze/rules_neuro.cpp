// Neuro capture hot-loop discipline (rule `neuro-hot-loop`).
//
// The SoA refactor (DESIGN.md §16) earns its frames/s by keeping the
// capture kernel's pixel loop on contiguous plane buffers: no per-pixel
// accessor objects or views, no per-pixel heap traffic. This rule pins
// that property so it cannot silently rot back toward the per-pixel object
// model: inside the body of any `capture_frame_into` definition, and of
// any `capture_channel_group` definition (the phase-2 work item that each
// x86-64 level's entry inlines), under src/neurochip/ it bans
//
//   * calls into the per-pixel accessor surface — `pixel(...)`,
//     `read_current(...)`, `sample(...)`, `elapse(...)`,
//     `calibrate(...)` — the bank's batch/prepared entry points
//     (`read_current_prepared`, `quiet_current`, `droop`,
//     `calibrate_pixels`, ...) are the sanctioned spellings;
//   * heap allocation — `new`, `push_back(`, `emplace_back(`,
//     `make_unique(`, `make_shared(` — the steady state allocates
//     nothing per frame;
//   * `std::function` — type-erased indirection heap-allocates beyond
//     the small-buffer size and blocks inlining in the hot loop.
//
// Escape hatch: `analyze:allow-hot-loop` on the flagged line, for the
// rare deliberate exception (with a reason in the comment).
#include <set>
#include <string>

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

/// True when the token at `i + 1` opens a call, optionally after a
/// balanced template argument list: `name(`, `name<T>(`,
/// `name<std::vector<T>>(`. `>>` is one token in this lexer.
bool call_follows(const Tokens& t, std::size_t i, std::size_t end) {
  std::size_t j = i + 1;
  if (j < end && punct(t[j], "<")) {
    int depth = 0;
    for (std::size_t steps = 0; j < end && steps < 64; ++j, ++steps) {
      if (punct(t[j], "<")) ++depth;
      if (punct(t[j], ">")) --depth;
      if (punct(t[j], ">>")) depth -= 2;
      if (depth <= 0) {
        ++j;
        break;
      }
    }
    if (depth > 0) return false;
  }
  return j < end && punct(t[j], "(");
}

/// The functions whose bodies are the capture hot loop.
bool kernel_name(const Token& t) {
  return ident(t, "capture_frame_into") || ident(t, "capture_channel_group");
}

/// Finds the body of the next kernel *definition* at or after `from`:
/// identifier, balanced parameter parens, optional qualifiers, then `{`.
/// Returns true, the kernel's name and the [begin, end) token range of the
/// body interior; false when no further definition exists.
bool next_definition_body(const Tokens& t, std::size_t from,
                          std::string& name, std::size_t& body_begin,
                          std::size_t& body_end, std::size_t& next_from) {
  for (std::size_t i = from; i + 1 < t.size(); ++i) {
    if (!kernel_name(t[i]) || !punct(t[i + 1], "(")) continue;
    // Balance the parameter list.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (punct(t[j], "(")) ++depth;
      if (punct(t[j], ")") && --depth == 0) break;
    }
    if (j >= t.size()) return false;
    // Skip trailing qualifiers (const, noexcept, override, ...) up to a
    // `{` (definition) or `;` (declaration — not our target).
    std::size_t k = j + 1;
    while (k < t.size() && t[k].kind == TokenKind::kIdentifier) ++k;
    if (k >= t.size() || !punct(t[k], "{")) {
      continue;  // declaration or call site; keep scanning
    }
    // Balance the body braces.
    std::size_t b = k;
    depth = 0;
    for (; b < t.size(); ++b) {
      if (punct(t[b], "{")) ++depth;
      if (punct(t[b], "}") && --depth == 0) break;
    }
    if (b >= t.size()) return false;
    name = t[i].text;
    body_begin = k + 1;
    body_end = b;
    next_from = b + 1;
    return true;
  }
  return false;
}

void check_body(const AnalyzedFile& f, const std::string& name,
                std::size_t begin, std::size_t end, Findings& out) {
  // The per-pixel accessor surface: the bank's unprepared per-index entry
  // points (read_current, calibrate) and the spellings of the retired
  // per-pixel object model (a pixel(...) view, sample, elapse). The SoA
  // kernel never touches these; the bank's prepared/batch APIs spell
  // differently on purpose.
  static const std::set<std::string> kAccessorCalls = {
      "pixel", "read_current", "sample", "elapse", "calibrate"};
  static const std::set<std::string> kAllocCalls = {
      "push_back", "emplace_back", "make_unique", "make_shared"};
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = begin; i < end; ++i) {
    std::string what;
    if (t[i].kind == TokenKind::kIdentifier &&
        kAccessorCalls.count(t[i].text) > 0 && i + 1 < end &&
        punct(t[i + 1], "(")) {
      what = "per-pixel accessor call '" + t[i].text +
             "(...)' — use the PixelBank prepared/batch API "
             "(read_current_prepared, quiet_current, droop, "
             "calibrate_pixels) on plane indices";
    } else if (t[i].kind == TokenKind::kIdentifier &&
               kAllocCalls.count(t[i].text) > 0 && call_follows(t, i, end)) {
      what = "heap allocation '" + t[i].text +
             "(...)' — the capture steady state allocates nothing "
             "per frame";
    } else if (ident(t[i], "new")) {
      what = "heap allocation 'new' — the capture steady state "
             "allocates nothing per frame";
    } else if (i > begin && punct(t[i - 1], "::") && ident(t[i], "function")) {
      what = "type-erased std::function — blocks inlining and may "
             "heap-allocate in the hot loop";
    }
    if (what.empty()) continue;
    if (line_has_marker(f.lex, t[i].line, "analyze:allow-hot-loop")) continue;
    out.push_back(Finding{
        f.src.path, t[i].line, "neuro-hot-loop",
        what + " inside " + name +
            " (DESIGN.md §16; escape: analyze:allow-hot-loop)"});
  }
}

}  // namespace

void rule_neuro_hot_loop(const Tree& tree, Findings& out) {
  for (const AnalyzedFile& f : tree) {
    if (!path_starts_with(f.src.path, "src/neurochip/") ||
        is_header(f.src.path)) {
      continue;
    }
    std::size_t from = 0;
    std::string name;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    std::size_t next_from = 0;
    while (next_definition_body(f.lex.tokens, from, name, body_begin,
                                body_end, next_from)) {
      check_body(f, name, body_begin, body_end, out);
      from = next_from;
    }
  }
}

}  // namespace biosense::analyze
