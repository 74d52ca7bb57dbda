// Declaration scanner for biosense-analyze (DESIGN.md §14).
//
// Walks the token stream of one file and extracts the structural facts
// the cross-file rules consume:
//
//   * classes/structs with their instance data members and the token
//     ranges of any in-class method bodies (recursing into nested
//     types, so a nested struct's fields never leak into the outer
//     class's member list);
//   * out-of-line method definitions (`void Class::method(...) {...}`);
//   * enums (scoped or not) with enumerator names, values and lines;
//   * namespace-scope integer constants (`inline constexpr T kFoo = N;`)
//     with small-expression evaluation (literals and `a << b`), enough
//     for capability bit masks;
//   * macro-style instrument calls (`BIOSENSE_COUNT("name", ...)`).
//
// The scanner is heuristic by design — it does not build an AST, it
// recognizes the declaration idioms this repo actually uses — and every
// recognized shape is pinned by tests/analyze fixtures so drift in the
// codebase style shows up as a test failure, not silent rot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace biosense::analyze {

/// Half-open token range [begin, end) into LexedFile::tokens.
struct TokenRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool empty() const { return begin >= end; }
};

struct MemberDecl {
  std::string name;
  int line = 0;       // line of the declarator identifier
  int decl_line = 0;  // first line of the declaration statement
  int end_line = 0;   // line of the terminating ';'
};

struct MethodDef {
  std::string name;
  int line = 0;
  TokenRange params;  // inside the ( )
  TokenRange body;    // inside the { } (empty when only declared)
  bool has_body = false;
};

struct ClassDecl {
  std::string name;
  int line = 0;
  std::vector<MemberDecl> members;
  std::vector<MethodDef> methods;  // only those with in-class bodies or decls
};

/// `Ret Class::method(...) { ... }` at namespace scope.
struct OutOfLineDef {
  std::string class_name;
  std::string method;
  int line = 0;
  TokenRange params;
  TokenRange body;
};

struct Enumerator {
  std::string name;
  int line = 0;
  std::optional<std::int64_t> value;  // explicit or running-count value
};

struct EnumDecl {
  std::string name;
  int line = 0;
  std::vector<Enumerator> enumerators;
};

struct ConstInt {
  std::string name;
  int line = 0;
  std::int64_t value = 0;
};

/// One `NAME("literal", ...)` macro-style call site.
struct MacroCall {
  std::string macro;
  int line = 0;
  bool first_arg_is_literal = false;
  std::string literal;  // adjacent string literals concatenated
};

struct FileFacts {
  std::vector<ClassDecl> classes;
  std::vector<OutOfLineDef> out_of_line;
  std::vector<EnumDecl> enums;
  std::vector<ConstInt> const_ints;
  std::vector<MacroCall> macro_calls;
};

/// Extracts facts from a lexed file. `macros` lists the macro-style call
/// names to collect (e.g. {"BIOSENSE_COUNT", ...}).
FileFacts scan(const LexedFile& file, const std::vector<std::string>& macros);

/// Finds the body token range of the function named `name` (method or
/// free function) anywhere in the file; empty range when absent.
TokenRange find_function_body(const LexedFile& file, const std::string& name);

/// Skips from an opening bracket token at `i` to just past its matching
/// closer. `open`/`close` are punct texts ("{"/"}", "("/")"). Returns
/// tokens.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& tokens, std::size_t i,
                          const char* open, const char* close);

}  // namespace biosense::analyze
