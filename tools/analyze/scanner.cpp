#include "scanner.hpp"

#include <algorithm>
#include <cstdlib>

namespace biosense::analyze {
namespace {

using Tokens = std::vector<Token>;

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_any(const std::string& s, std::initializer_list<const char*> list) {
  return std::any_of(list.begin(), list.end(),
                     [&](const char* x) { return s == x; });
}

/// Parses an integer literal with optional 0x prefix and u/l suffixes.
std::optional<std::int64_t> parse_int(const std::string& text) {
  std::string digits = text;
  while (!digits.empty()) {
    const char c = digits.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L') {
      digits.pop_back();
    } else {
      break;
    }
  }
  if (digits.empty()) return std::nullopt;
  char* end = nullptr;
  const long long v = std::strtoll(digits.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

/// Evaluates the tiny constant-expression subset the rules need:
/// `N`, `(N)`, `A << B`. Anything else is nullopt.
std::optional<std::int64_t> eval_expr(const Tokens& tokens, std::size_t begin,
                                      std::size_t end) {
  while (end > begin && is_punct(tokens[begin], "(") &&
         is_punct(tokens[end - 1], ")")) {
    ++begin;
    --end;
  }
  if (end == begin) return std::nullopt;
  if (end == begin + 1 && tokens[begin].kind == TokenKind::kNumber) {
    return parse_int(tokens[begin].text);
  }
  if (end == begin + 3 && tokens[begin].kind == TokenKind::kNumber &&
      is_punct(tokens[begin + 1], "<<") &&
      tokens[begin + 2].kind == TokenKind::kNumber) {
    const auto a = parse_int(tokens[begin].text);
    const auto b = parse_int(tokens[begin + 2].text);
    if (a && b && *b >= 0 && *b < 63) return *a << *b;
  }
  return std::nullopt;
}

class Scanner {
 public:
  Scanner(const LexedFile& file, const std::vector<std::string>& macros)
      : tokens_(file.tokens), macros_(macros) {}

  FileFacts run() {
    scan_macro_calls();
    scan_namespace_scope(0, tokens_.size());
    return std::move(facts_);
  }

 private:
  const Tokens& tokens_;
  const std::vector<std::string>& macros_;
  FileFacts facts_;

  void scan_macro_calls() {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i].kind != TokenKind::kIdentifier) continue;
      if (std::find(macros_.begin(), macros_.end(), tokens_[i].text) ==
          macros_.end()) {
        continue;
      }
      if (!is_punct(tokens_[i + 1], "(")) continue;
      MacroCall call;
      call.macro = tokens_[i].text;
      call.line = tokens_[i].line;
      // First argument: tokens up to a top-level ',' or ')'.
      std::size_t j = i + 2;
      int depth = 0;
      bool all_strings = true;
      std::size_t parts = 0;
      while (j < tokens_.size()) {
        const Token& t = tokens_[j];
        if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) ++depth;
        if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
          if (depth == 0) break;
          --depth;
        }
        if (depth == 0 && is_punct(t, ",")) break;
        if (t.kind == TokenKind::kString) {
          call.literal += t.text;
          ++parts;
        } else {
          all_strings = false;
        }
        ++j;
      }
      call.first_arg_is_literal = all_strings && parts > 0;
      facts_.macro_calls.push_back(std::move(call));
    }
  }

  /// Skips one statement starting at `i`: balances (), {}, stops after the
  /// terminating ';' or after a top-level {...} body (function/class).
  std::size_t skip_statement(std::size_t i, std::size_t end) {
    bool saw_parens = false;
    while (i < end) {
      const Token& t = tokens_[i];
      if (is_punct(t, "(")) {
        i = skip_balanced(tokens_, i, "(", ")");
        saw_parens = true;
        continue;
      }
      if (is_punct(t, "{")) {
        i = skip_balanced(tokens_, i, "{", "}");
        // A function body ends the statement; an initializer/type body is
        // followed by declarators and the ';' closes it.
        if (saw_parens) {
          if (i < end && is_punct(tokens_[i], ";")) ++i;
          return i;
        }
        continue;
      }
      if (is_punct(t, ";")) return i + 1;
      ++i;
    }
    return end;
  }

  void scan_namespace_scope(std::size_t i, std::size_t end) {
    while (i < end) {
      const Token& t = tokens_[i];
      if (is_ident(t, "namespace")) {
        ++i;
        while (i < end && !is_punct(tokens_[i], "{") &&
               !is_punct(tokens_[i], ";")) {
          ++i;
        }
        if (i < end && is_punct(tokens_[i], "{")) ++i;  // transparent
        continue;
      }
      if (is_ident(t, "template")) {
        i = skip_template_header(i + 1, end);
        continue;
      }
      if (is_ident(t, "class") || is_ident(t, "struct") ||
          is_ident(t, "union")) {
        i = parse_class(i, end);
        continue;
      }
      if (is_ident(t, "enum")) {
        i = parse_enum(i, end);
        continue;
      }
      if (is_punct(t, "}")) {
        ++i;  // closing a namespace
        continue;
      }
      i = parse_namespace_statement(i, end);
    }
  }

  std::size_t skip_template_header(std::size_t i, std::size_t end) {
    if (i < end && is_punct(tokens_[i], "<")) {
      int depth = 0;
      while (i < end) {
        const Token& t = tokens_[i];
        if (is_punct(t, "<")) ++depth;
        if (is_punct(t, ">")) --depth;
        if (is_punct(t, ">>")) depth -= 2;
        ++i;
        if (depth <= 0) break;
      }
    }
    return i;
  }

  /// A namespace-scope statement: a declaration, a constant, a free
  /// function or an out-of-line method definition.
  std::size_t parse_namespace_statement(std::size_t i, std::size_t end) {
    const std::size_t stmt_begin = i;
    bool saw_constexpr = false;
    std::string last_ident;
    std::size_t last_ident_pos = 0;
    while (i < end) {
      const Token& t = tokens_[i];
      if (is_punct(t, ";")) {
        ++i;
        break;
      }
      if (is_ident(t, "constexpr")) saw_constexpr = true;
      if (t.kind == TokenKind::kIdentifier) {
        last_ident = t.text;
        last_ident_pos = i;
      }
      if (is_punct(t, "=") && saw_constexpr && !last_ident.empty()) {
        // inline constexpr T kName = <expr>; its initializer declares
        // nothing.
        std::size_t j = i + 1;
        while (j < end && !is_punct(tokens_[j], ";")) ++j;
        return (j < end) ? j + 1 : end;
      }
      if (is_punct(t, "(")) {
        // Candidate function: name is the identifier right before the
        // parens; a preceding `::` makes it an out-of-line method.
        const std::size_t params_begin = i + 1;
        i = skip_balanced(tokens_, i, "(", ")");
        const std::size_t params_end = (i == tokens_.size()) ? i : i - 1;
        // Skip trailing qualifiers / constructor init list up to body.
        std::size_t j = i;
        while (j < end && !is_punct(tokens_[j], "{") &&
               !is_punct(tokens_[j], ";") && !is_punct(tokens_[j], "=")) {
          if (is_punct(tokens_[j], "(")) {
            j = skip_balanced(tokens_, j, "(", ")");
            continue;
          }
          ++j;
        }
        if (j < end && is_punct(tokens_[j], "{")) {
          const std::size_t body_begin = j + 1;
          const std::size_t body_close = skip_balanced(tokens_, j, "{", "}");
          const std::size_t body_end =
              (body_close == tokens_.size()) ? body_close : body_close - 1;
          if (last_ident_pos >= stmt_begin + 2 &&
              is_punct(tokens_[last_ident_pos - 1], "::") &&
              tokens_[last_ident_pos - 2].kind == TokenKind::kIdentifier) {
            OutOfLineDef def;
            def.class_name = tokens_[last_ident_pos - 2].text;
            def.method = last_ident;
            def.line = tokens_[last_ident_pos].line;
            def.params = TokenRange{params_begin, params_end};
            def.body = TokenRange{body_begin, body_end};
            facts_.out_of_line.push_back(std::move(def));
          }
          return body_close;
        }
        // Declaration (or `= default;`): skip to ';'.
        while (j < end && !is_punct(tokens_[j], ";")) ++j;
        return (j < end) ? j + 1 : end;
      }
      if (is_punct(t, "{")) {
        // Aggregate initializer or stray block: skip it.
        i = skip_balanced(tokens_, i, "{", "}");
        continue;
      }
      ++i;
    }
    return i;
  }

  /// Parses `class/struct/union Name ... { body } declarators ;`.
  /// Records the class (recursively) and returns past the statement.
  std::size_t parse_class(std::size_t i, std::size_t end) {
    ++i;  // class/struct/union
    std::string name;
    int line = (i < end) ? tokens_[i].line : 0;
    // Find the name and whether this is a definition (a '{' before ';').
    std::size_t j = i;
    std::size_t body_open = 0;
    bool definition = false;
    int depth_angle = 0;
    while (j < end) {
      const Token& t = tokens_[j];
      if (t.kind == TokenKind::kIdentifier && depth_angle == 0 &&
          !is_any(t.text, {"final", "public", "private", "protected",
                           "virtual"}) &&
          name.empty()) {
        name = t.text;
        line = t.line;
      }
      if (is_punct(t, "<")) ++depth_angle;
      if (is_punct(t, ">")) --depth_angle;
      if (is_punct(t, ">>")) depth_angle -= 2;
      if (is_punct(t, "(")) {
        // `struct X f(...)` — a declaration using an elaborated type.
        return skip_statement(j, end);
      }
      if (is_punct(t, ";")) return j + 1;  // forward decl / variable
      if (is_punct(t, "{") && depth_angle <= 0) {
        body_open = j;
        definition = true;
        break;
      }
      ++j;
    }
    if (!definition) return end;

    ClassDecl decl;
    decl.name = name.empty() ? "<anonymous>" : name;
    decl.line = line;
    const std::size_t body_close =
        parse_class_body(body_open + 1, end, decl);
    facts_.classes.push_back(std::move(decl));
    // Trailing declarators (members of an enclosing scope) up to ';'.
    std::size_t k = body_close;
    while (k < end && !is_punct(tokens_[k], ";")) ++k;
    return (k < end) ? k + 1 : end;
  }

  /// Parses statements inside a class body, filling `decl`. Returns the
  /// index just past the closing '}'.
  std::size_t parse_class_body(std::size_t i, std::size_t end,
                               ClassDecl& decl) {
    while (i < end) {
      const Token& t = tokens_[i];
      if (is_punct(t, "}")) return i + 1;
      // Access specifiers.
      if (t.kind == TokenKind::kIdentifier &&
          is_any(t.text, {"public", "private", "protected"}) && i + 1 < end &&
          is_punct(tokens_[i + 1], ":")) {
        i += 2;
        continue;
      }
      if (is_ident(t, "template")) {
        i = skip_template_header(i + 1, end);
        continue;
      }
      if (t.kind == TokenKind::kIdentifier &&
          is_any(t.text, {"using", "typedef", "friend", "static_assert",
                          "static", "constexpr"})) {
        i = skip_statement(i, end);
        continue;
      }
      if (t.kind == TokenKind::kIdentifier &&
          is_any(t.text, {"class", "struct", "union"})) {
        i = parse_nested_type(i, end, decl);
        continue;
      }
      if (is_ident(t, "enum")) {
        i = parse_enum(i, end);
        continue;
      }
      if (is_punct(t, ";")) {
        ++i;
        continue;
      }
      i = parse_member_statement(i, end, decl);
    }
    return end;
  }

  /// Nested class/struct definition at class scope; any declarators after
  /// the closing '}' become members of the *enclosing* class.
  std::size_t parse_nested_type(std::size_t i, std::size_t end,
                                ClassDecl& outer) {
    // Distinguish a definition from `struct X member_;`.
    std::size_t j = i + 1;
    while (j < end && !is_punct(tokens_[j], "{") &&
           !is_punct(tokens_[j], ";")) {
      ++j;
    }
    if (j >= end || is_punct(tokens_[j], ";")) {
      // `struct X member_;` — the declarator scan handles it.
      return parse_member_statement(i + 1, end, outer);
    }
    const std::size_t after = parse_class(i, end);
    // parse_class consumed trailing declarators up to ';'. Re-scan them
    // for member names: tokens between the nested body's '}' and ';'.
    // (Rare: anonymous-struct members. Named nested types have none.)
    (void)outer;
    return after;
  }

  std::size_t parse_enum(std::size_t i, std::size_t end) {
    ++i;  // enum
    if (i < end &&
        (is_ident(tokens_[i], "class") || is_ident(tokens_[i], "struct"))) {
      ++i;
    }
    EnumDecl decl;
    if (i < end && tokens_[i].kind == TokenKind::kIdentifier) {
      decl.name = tokens_[i].text;
      decl.line = tokens_[i].line;
      ++i;
    }
    while (i < end && !is_punct(tokens_[i], "{") &&
           !is_punct(tokens_[i], ";")) {
      ++i;  // `: underlying_type`
    }
    if (i >= end || is_punct(tokens_[i], ";")) {
      return (i < end) ? i + 1 : end;  // opaque declaration
    }
    ++i;  // '{'
    std::int64_t next_value = 0;
    bool value_known = true;
    while (i < end && !is_punct(tokens_[i], "}")) {
      if (tokens_[i].kind != TokenKind::kIdentifier) {
        ++i;
        continue;
      }
      Enumerator e;
      e.name = tokens_[i].text;
      e.line = tokens_[i].line;
      ++i;
      if (i < end && is_punct(tokens_[i], "=")) {
        std::size_t j = i + 1;
        int depth = 0;
        while (j < end) {
          const Token& t = tokens_[j];
          if (is_punct(t, "(")) ++depth;
          if (is_punct(t, ")")) --depth;
          if (depth == 0 && (is_punct(t, ",") || is_punct(t, "}"))) break;
          ++j;
        }
        if (const auto v = eval_expr(tokens_, i + 1, j)) {
          next_value = *v;
          value_known = true;
        } else {
          value_known = false;
        }
        i = j;
      }
      e.value = value_known ? std::optional<std::int64_t>(next_value)
                            : std::nullopt;
      if (value_known) ++next_value;
      decl.enumerators.push_back(std::move(e));
      if (i < end && is_punct(tokens_[i], ",")) ++i;
    }
    facts_.enums.push_back(std::move(decl));
    i = (i < end) ? i + 1 : end;  // '}'
    while (i < end && !is_punct(tokens_[i], ";")) ++i;
    return (i < end) ? i + 1 : end;
  }

  /// The core declarator scan at class scope: one statement that is
  /// either member variable(s) or a method declaration/definition.
  std::size_t parse_member_statement(std::size_t i, std::size_t end,
                                     ClassDecl& decl) {
    const int stmt_line = (i < end) ? tokens_[i].line : 0;
    std::string last_ident;
    std::size_t last_ident_pos = 0;
    int angle_depth = 0;

    auto record_member = [&](std::size_t semi_pos) {
      if (last_ident.empty()) return;
      MemberDecl m;
      m.name = last_ident;
      m.line = tokens_[last_ident_pos].line;
      m.decl_line = stmt_line;
      m.end_line =
          (semi_pos < end) ? tokens_[semi_pos].line : m.line;
      decl.members.push_back(std::move(m));
    };

    while (i < end) {
      const Token& t = tokens_[i];
      if (is_ident(t, "operator")) {
        // Conversion/overloaded operator: consume tokens until the
        // parameter list and treat as a method named "operator".
        std::size_t j = i + 1;
        if (j + 1 < end && is_punct(tokens_[j], "(") &&
            is_punct(tokens_[j + 1], ")")) {
          j += 2;  // operator()
        } else {
          while (j < end && !is_punct(tokens_[j], "(")) ++j;
        }
        last_ident = "operator";
        last_ident_pos = i;
        i = j;
        if (i < end) {
          return parse_method_tail(i, end, decl, last_ident,
                                   tokens_[last_ident_pos].line);
        }
        return end;
      }
      if (t.kind == TokenKind::kIdentifier && t.text != "mutable" &&
          t.text != "virtual" && t.text != "explicit" && t.text != "inline") {
        last_ident = t.text;
        last_ident_pos = i;
        ++i;
        continue;
      }
      if (is_punct(t, "<") && i > 0 &&
          (tokens_[i - 1].kind == TokenKind::kIdentifier ||
           is_punct(tokens_[i - 1], ">"))) {
        ++angle_depth;
        ++i;
        continue;
      }
      if (angle_depth > 0 && is_punct(t, ">")) {
        --angle_depth;
        ++i;
        continue;
      }
      if (angle_depth > 0 && is_punct(t, ">>")) {
        angle_depth = std::max(0, angle_depth - 2);
        ++i;
        continue;
      }
      if (is_punct(t, "(")) {
        if (angle_depth > 0) {
          i = skip_balanced(tokens_, i, "(", ")");
          continue;
        }
        if (last_ident.empty()) {
          // e.g. `;` noise — be defensive.
          i = skip_statement(i, end);
          return i;
        }
        return parse_method_tail(i, end, decl, last_ident,
                                 tokens_[last_ident_pos].line);
      }
      if (angle_depth == 0 &&
          (is_punct(t, "=") || is_punct(t, "{") || is_punct(t, "["))) {
        // Member with initializer / brace-init / array extent.
        std::size_t j = i;
        if (is_punct(t, "[")) {
          j = skip_balanced(tokens_, j, "[", "]");
        }
        if (j < end && is_punct(tokens_[j], "{")) {
          j = skip_balanced(tokens_, j, "{", "}");
        } else if (j < end && is_punct(tokens_[j], "=")) {
          ++j;
          int depth = 0;
          while (j < end) {
            const Token& u = tokens_[j];
            if (is_punct(u, "(") || is_punct(u, "{") || is_punct(u, "[")) {
              ++depth;
            }
            if (is_punct(u, ")") || is_punct(u, "}") || is_punct(u, "]")) {
              --depth;
            }
            if (depth <= 0 && (is_punct(u, ";") || is_punct(u, ","))) break;
            ++j;
          }
        }
        record_member(j);
        if (j < end && is_punct(tokens_[j], ",")) {
          last_ident.clear();
          i = j + 1;
          continue;
        }
        while (j < end && !is_punct(tokens_[j], ";")) ++j;
        return (j < end) ? j + 1 : end;
      }
      if (angle_depth == 0 && is_punct(t, ",")) {
        record_member(i);
        last_ident.clear();
        ++i;
        continue;
      }
      if (is_punct(t, ";")) {
        record_member(i);
        return i + 1;
      }
      if (is_punct(t, "}")) {
        // Malformed statement hitting end of class: let the body loop see
        // the brace.
        return i;
      }
      ++i;  // punctuation that is part of the type (* & :: etc.)
    }
    return end;
  }

  /// After a method's '(' at `i`: records the MethodDef and returns the
  /// index past the statement.
  std::size_t parse_method_tail(std::size_t i, std::size_t end,
                                ClassDecl& decl, const std::string& name,
                                int line) {
    MethodDef def;
    def.name = name;
    def.line = line;
    const std::size_t params_begin = i + 1;
    i = skip_balanced(tokens_, i, "(", ")");
    def.params = TokenRange{params_begin,
                            (i == tokens_.size()) ? i : i - 1};
    // Qualifiers, possibly a constructor init list, up to body or ';'.
    while (i < end && !is_punct(tokens_[i], "{") &&
           !is_punct(tokens_[i], ";") && !is_punct(tokens_[i], "=")) {
      if (is_punct(tokens_[i], "(")) {
        i = skip_balanced(tokens_, i, "(", ")");
        continue;
      }
      ++i;
    }
    if (i < end && is_punct(tokens_[i], "{")) {
      const std::size_t body_begin = i + 1;
      const std::size_t close = skip_balanced(tokens_, i, "{", "}");
      def.body = TokenRange{body_begin,
                            (close == tokens_.size()) ? close : close - 1};
      def.has_body = true;
      decl.methods.push_back(std::move(def));
      return close;
    }
    // `= default;` / `= 0;` / plain declaration.
    while (i < end && !is_punct(tokens_[i], ";")) ++i;
    decl.methods.push_back(std::move(def));
    return (i < end) ? i + 1 : end;
  }
};

}  // namespace

std::size_t skip_balanced(const std::vector<Token>& tokens, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  while (i < tokens.size()) {
    if (is_punct(tokens[i], open)) ++depth;
    if (is_punct(tokens[i], close)) {
      --depth;
      if (depth == 0) return i + 1;
    }
    ++i;
  }
  return tokens.size();
}

FileFacts scan(const LexedFile& file, const std::vector<std::string>& macros) {
  return Scanner(file, macros).run();
}

TokenRange find_function_body(const LexedFile& file, const std::string& name) {
  const Tokens& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier || tokens[i].text != name) {
      continue;
    }
    if (!is_punct(tokens[i + 1], "(")) continue;
    std::size_t j = skip_balanced(tokens, i + 1, "(", ")");
    bool is_def = false;
    while (j < tokens.size()) {
      if (is_punct(tokens[j], ";")) break;
      if (is_punct(tokens[j], "(")) {
        j = skip_balanced(tokens, j, "(", ")");
        continue;
      }
      if (is_punct(tokens[j], "{")) {
        is_def = true;
        break;
      }
      ++j;
    }
    if (is_def) {
      const std::size_t close = skip_balanced(tokens, j, "{", "}");
      return TokenRange{j + 1, (close == tokens.size()) ? close : close - 1};
    }
  }
  return TokenRange{};
}

}  // namespace biosense::analyze
