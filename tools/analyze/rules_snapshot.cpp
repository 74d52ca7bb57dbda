// Snapshot completeness rules (DESIGN.md §14).
//
// Bit-exact resume (DESIGN.md §13) rests on a convention no compiler
// checks: every class with save_state/load_state hooks serializes all of
// its evolving state, and the two hooks walk the same field list. These
// rules turn the convention into findings:
//
//   snapshot-pair      a class defining one hook defines both.
//   snapshot-coverage  every declared data member is referenced in BOTH
//                      hooks, or carries `// analyze:transient <reason>`
//                      on its declaration. A transient annotation on a
//                      member that *is* fully serialized is also flagged
//                      (stale annotations rot the audit trail).
//   snapshot-mirror    the sequence of StateWriter operations in
//                      save_state equals the sequence of StateReader
//                      operations in load_state, in order and width
//                      (u8/u16/u32/u64/i32/i64/b/f64/rng/vec_f64/
//                      vec_u64/bytes), with nested x.save_state(w) /
//                      x.load_state(r) hooks and save/load callback
//                      pairs matched positionally.
//
// Cross-file by construction: member lists come from the class body
// (header), hook bodies from wherever they are defined (often the .cpp).
#include <algorithm>
#include <map>
#include <set>

#include "rules.hpp"

namespace biosense::analyze {
namespace {

const char* const kTransientMarker = "analyze:transient";

bool is_width_op(const std::string& name) {
  static const std::set<std::string> kOps = {
      "u8",  "u16",     "u32",     "u64",   "i32", "i64", "b",
      "f64", "vec_f64", "vec_u64", "bytes", "raw", "rng"};
  return kOps.count(name) > 0;
}

/// Replaces save/load/read/write naming halves with a placeholder so a
/// `save_item` callback in save_state pairs with `load_item` in
/// load_state.
std::string normalize_call_name(std::string name) {
  static const std::pair<const char*, const char*> kPairs[] = {
      {"save", "x"}, {"load", "x"}, {"write", "x"}, {"read", "x"},
      {"Save", "X"}, {"Load", "X"}, {"Write", "X"}, {"Read", "X"},
      {"Writer", "X"}, {"Reader", "X"},
  };
  for (const auto& [from, to] : kPairs) {
    const std::string needle(from);
    std::size_t pos = 0;
    while ((pos = name.find(needle, pos)) != std::string::npos) {
      name.replace(pos, needle.size(), to);
      pos += 1;
    }
  }
  return name;
}

struct HookBody {
  const AnalyzedFile* file = nullptr;
  TokenRange params;
  TokenRange body;
  int line = 0;
  bool found = false;
};

struct Op {
  std::string name;  // width op, "nested", or "call:<normalized>"
  int line = 0;
};

/// The parameter of StateWriter/StateReader type inside a param range.
std::string cursor_param(const AnalyzedFile& file, TokenRange params) {
  const auto& tokens = file.lex.tokens;
  for (std::size_t i = params.begin; i < params.end && i < tokens.size();
       ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    if (tokens[i].text != "StateWriter" && tokens[i].text != "StateReader") {
      continue;
    }
    for (std::size_t j = i + 1; j < params.end; ++j) {
      if (tokens[j].kind == TokenKind::kIdentifier) return tokens[j].text;
      if (tokens[j].text == ",") break;
    }
  }
  return std::string();
}

/// True when `cursor` appears as a top-level argument of the call whose
/// '(' is at `open` (depth 1 only — deeper occurrences belong to inner
/// call sites that are visited on their own).
bool args_contain_cursor(const std::vector<Token>& tokens, std::size_t open,
                         std::size_t close, const std::string& cursor) {
  int depth = 0;
  for (std::size_t i = open; i < close; ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kPunct &&
        (t.text == "(" || t.text == "[" || t.text == "{")) {
      ++depth;
      continue;
    }
    if (t.kind == TokenKind::kPunct &&
        (t.text == ")" || t.text == "]" || t.text == "}")) {
      --depth;
      continue;
    }
    if (depth == 1 && t.kind == TokenKind::kIdentifier && t.text == cursor) {
      return true;
    }
  }
  return false;
}

std::vector<Op> extract_ops(const AnalyzedFile& file, TokenRange body,
                            const std::string& cursor) {
  const auto& tokens = file.lex.tokens;
  std::vector<Op> ops;
  if (cursor.empty()) return ops;
  for (std::size_t i = body.begin; i < body.end && i + 1 < tokens.size();
       ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    if (tokens[i + 1].kind != TokenKind::kPunct || tokens[i + 1].text != "(") {
      continue;
    }
    const std::string& fn = tokens[i].text;
    // Control flow with the cursor inside its condition is not a payload
    // op (`if (!r.ok()) return;`); the cursor-receiver calls inside the
    // parens are visited on their own.
    static const std::set<std::string> kKeywords = {"if", "while", "for",
                                                    "switch", "return"};
    if (kKeywords.count(fn) > 0) continue;
    const bool cursor_receiver =
        i >= 2 && tokens[i - 1].kind == TokenKind::kPunct &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
        tokens[i - 2].kind == TokenKind::kIdentifier &&
        tokens[i - 2].text == cursor;
    if (cursor_receiver) {
      if (is_width_op(fn)) {
        ops.push_back(Op{fn, tokens[i].line});
      }
      // Queries (ok/exhausted/fail/...) are control flow, not payload.
      continue;
    }
    const std::size_t close =
        skip_balanced(tokens, i + 1, "(", ")");
    if (!args_contain_cursor(tokens, i + 1, close, cursor)) continue;
    if (fn == "save_state" || fn == "load_state") {
      ops.push_back(Op{"nested", tokens[i].line});
    } else {
      ops.push_back(Op{"call:" + normalize_call_name(fn), tokens[i].line});
    }
  }
  return ops;
}

bool body_references(const AnalyzedFile& file, TokenRange body,
                     const std::string& name) {
  const auto& tokens = file.lex.tokens;
  for (std::size_t i = body.begin; i < body.end && i < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier && tokens[i].text == name) {
      return true;
    }
  }
  return false;
}

/// A member's transient annotation state on its declaration lines.
enum class Transient { kAbsent, kBare, kWithReason };

bool line_has_tokens(const AnalyzedFile& file, int line) {
  return std::any_of(file.lex.tokens.begin(), file.lex.tokens.end(),
                     [line](const Token& t) { return t.line == line; });
}

Transient transient_marker(const AnalyzedFile& file, const MemberDecl& m) {
  // The marker may sit on the declaration's own lines, or on an
  // immediately preceding comment-only line.
  std::vector<int> lines;
  for (int line = m.decl_line; line <= std::max(m.end_line, m.decl_line);
       ++line) {
    lines.push_back(line);
  }
  if (m.decl_line > 1 && !line_has_tokens(file, m.decl_line - 1)) {
    lines.push_back(m.decl_line - 1);
  }
  for (int line : lines) {
    if (!line_has_marker(file.lex, line, kTransientMarker)) continue;
    const std::string reason = marker_payload(file.lex, line, kTransientMarker);
    // A reason clause needs actual words, not trailing punctuation.
    int word_chars = 0;
    for (char c : reason) {
      if (std::isalnum(static_cast<unsigned char>(c))) ++word_chars;
    }
    return (word_chars >= 3) ? Transient::kWithReason : Transient::kBare;
  }
  return Transient::kAbsent;
}

}  // namespace

void rule_snapshot(const Tree& tree, Findings& out) {
  // Index out-of-line hook definitions by class name.
  struct OutDef {
    const AnalyzedFile* file;
    const OutOfLineDef* def;
  };
  std::map<std::string, std::vector<OutDef>> out_of_line;
  for (const AnalyzedFile& file : tree) {
    for (const OutOfLineDef& def : file.facts.out_of_line) {
      if (def.method == "save_state" || def.method == "load_state") {
        out_of_line[def.class_name].push_back(OutDef{&file, &def});
      }
    }
  }

  for (const AnalyzedFile& file : tree) {
    if (!path_starts_with(file.src.path, "src/")) continue;
    for (const ClassDecl& cls : file.facts.classes) {
      HookBody save, load;
      bool declares_save = false, declares_load = false;
      for (const MethodDef& m : cls.methods) {
        if (m.name != "save_state" && m.name != "load_state") continue;
        HookBody& slot = (m.name == "save_state") ? save : load;
        (m.name == "save_state" ? declares_save : declares_load) = true;
        if (m.has_body) {
          slot = HookBody{&file, m.params, m.body, m.line, true};
        } else {
          slot.line = m.line;
        }
      }
      if (!declares_save && !declares_load) continue;

      // Out-of-line bodies for hooks declared without one.
      const auto it = out_of_line.find(cls.name);
      if (it != out_of_line.end()) {
        for (const OutDef& od : it->second) {
          HookBody& slot = (od.def->method == "save_state") ? save : load;
          if (!slot.found) {
            slot = HookBody{od.file, od.def->params, od.def->body,
                            od.def->line, true};
          }
        }
      }

      if (declares_save != declares_load) {
        out.push_back(Finding{
            file.src.path, cls.line, "snapshot-pair",
            "class '" + cls.name + "' declares " +
                (declares_save ? "save_state" : "load_state") +
                " but not its counterpart; snapshot hooks come in pairs"});
        continue;
      }
      if (!save.found || !load.found) {
        // Declared but no definition visible anywhere (should not happen
        // in-tree; the linker would also complain).
        continue;
      }

      // --- snapshot-coverage -------------------------------------------------
      for (const MemberDecl& m : cls.members) {
        const bool in_save = body_references(*save.file, save.body, m.name);
        const bool in_load = body_references(*load.file, load.body, m.name);
        const Transient marker = transient_marker(file, m);
        if (in_save && in_load) {
          if (marker != Transient::kAbsent) {
            out.push_back(Finding{
                file.src.path, m.line, "snapshot-coverage",
                "member '" + m.name + "' of '" + cls.name +
                    "' is marked analyze:transient but is referenced by "
                    "both hooks; drop the stale annotation"});
          }
          continue;
        }
        if (marker == Transient::kWithReason) continue;
        if (marker == Transient::kBare) {
          out.push_back(Finding{
              file.src.path, m.line, "snapshot-coverage",
              "member '" + m.name + "' of '" + cls.name +
                  "' has a bare analyze:transient; add a one-clause reason "
                  "(e.g. \"analyze:transient - frozen config\")"});
          continue;
        }
        const char* where = (!in_save && !in_load) ? "save_state or load_state"
                            : (!in_save ? "save_state" : "load_state");
        out.push_back(Finding{
            file.src.path, m.line, "snapshot-coverage",
            "member '" + m.name + "' of '" + cls.name +
                "' is not referenced in " + std::string(where) +
                "; serialize it or annotate '// analyze:transient <why>'"});
      }

      // --- snapshot-mirror ---------------------------------------------------
      const std::string wparam = cursor_param(*save.file, save.params);
      const std::string rparam = cursor_param(*load.file, load.params);
      const std::vector<Op> writes = extract_ops(*save.file, save.body, wparam);
      const std::vector<Op> reads = extract_ops(*load.file, load.body, rparam);
      const std::size_t n = std::min(writes.size(), reads.size());
      for (std::size_t k = 0; k < n; ++k) {
        if (writes[k].name == reads[k].name) continue;
        out.push_back(Finding{
            save.file->src.path, writes[k].line, "snapshot-mirror",
            "'" + cls.name + "': save_state op #" + std::to_string(k + 1) +
                " is '" + writes[k].name + "' but load_state reads '" +
                reads[k].name + "' (" + load.file->src.path + ":" +
                std::to_string(reads[k].line) +
                "); write and read sequences must mirror in order and "
                "width"});
        break;  // one desync poisons every later position
      }
      if (writes.size() != reads.size()) {
        const bool more_writes = writes.size() > reads.size();
        const Op& extra =
            more_writes ? writes[reads.size()] : reads[writes.size()];
        const HookBody& h = more_writes ? save : load;
        out.push_back(Finding{
            h.file->src.path, extra.line, "snapshot-mirror",
            "'" + cls.name + "': save_state has " +
                std::to_string(writes.size()) + " cursor ops but load_state "
                "has " + std::to_string(reads.size()) +
                "; first unmatched op '" + extra.name + "' in " +
                (more_writes ? "save_state" : "load_state")});
      }
    }
  }
}

}  // namespace biosense::analyze
