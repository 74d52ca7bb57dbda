// Protocol schema consistency rules (DESIGN.md §14).
//
// The fleet protocol (DESIGN.md §12) keeps two hand-maintained
// surfaces in agreement: the `HostCommand` enum in protocol.hpp and the
// dispatcher schema table registered in FleetServer::register_handlers.
// These rules check the agreement whole-program:
//
//   proto-schema  every HostCommand enumerator has exactly one schema
//                 entry; no two enumerators share a wire value.
//   proto-names   host_command_name / host_status_name switch over
//                 every enumerator (a missed case returns the fallback
//                 string and poisons diagnostics).
//
// The rules activate only when a HostCommand enum exists in the tree,
// so fixture corpora exercise them with miniature protocol files under
// the same src/host/ paths.
#include <map>
#include <set>

#include "rules.hpp"

namespace biosense::analyze {
namespace {

struct EnumSite {
  const AnalyzedFile* file = nullptr;
  const EnumDecl* decl = nullptr;
};

EnumSite find_enum(const Tree& tree, const std::string& name) {
  for (const AnalyzedFile& file : tree) {
    if (!path_starts_with(file.src.path, "src/host/")) continue;
    for (const EnumDecl& e : file.facts.enums) {
      if (e.name == name) return EnumSite{&file, &e};
    }
  }
  return EnumSite{};
}

struct SchemaEntry {
  std::string enumerator;
  int line = 0;
};

/// Schema entries = `HostCommand::kX` occurrences inside the body of
/// register_handlers.
std::vector<SchemaEntry> collect_entries(const Tree& tree,
                                         const AnalyzedFile** where) {
  for (const AnalyzedFile& file : tree) {
    if (!path_starts_with(file.src.path, "src/host/")) continue;
    const TokenRange body = find_function_body(file.lex, "register_handlers");
    if (body.empty()) continue;
    *where = &file;
    std::vector<SchemaEntry> entries;
    const auto& tokens = file.lex.tokens;
    for (std::size_t i = body.begin; i + 2 < body.end; ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier ||
          tokens[i].text != "HostCommand") {
        continue;
      }
      if (tokens[i + 1].text != "::" ||
          tokens[i + 2].kind != TokenKind::kIdentifier) {
        continue;
      }
      entries.push_back(SchemaEntry{tokens[i + 2].text, tokens[i + 2].line});
    }
    return entries;
  }
  return {};
}

void check_name_coverage(const Tree& tree, const EnumSite& site,
                         const std::string& fn, Findings& out) {
  if (site.decl == nullptr) return;
  for (const AnalyzedFile& file : tree) {
    if (!path_starts_with(file.src.path, "src/host/")) continue;
    const TokenRange body = find_function_body(file.lex, fn);
    if (body.empty()) continue;
    std::set<std::string> mentioned;
    for (std::size_t i = body.begin;
         i < body.end && i < file.lex.tokens.size(); ++i) {
      if (file.lex.tokens[i].kind == TokenKind::kIdentifier) {
        mentioned.insert(file.lex.tokens[i].text);
      }
    }
    for (const Enumerator& e : site.decl->enumerators) {
      if (mentioned.count(e.name) == 0) {
        out.push_back(Finding{
            site.file->src.path, e.line, "proto-names",
            "enumerator '" + e.name + "' of '" + site.decl->name +
                "' is not handled by " + fn + "() (" + file.src.path +
                "); diagnostics would fall through to the default"});
      }
    }
    return;
  }
}

}  // namespace

void rule_protocol(const Tree& tree, Findings& out) {
  const EnumSite commands = find_enum(tree, "HostCommand");
  if (commands.decl == nullptr) return;  // no protocol in this tree

  // Duplicate wire values inside the enum.
  std::map<std::int64_t, const Enumerator*> by_value;
  for (const Enumerator& e : commands.decl->enumerators) {
    if (!e.value) continue;
    const auto [it, inserted] = by_value.emplace(*e.value, &e);
    if (!inserted) {
      out.push_back(Finding{
          commands.file->src.path, e.line, "proto-schema",
          "enumerator '" + e.name + "' reuses wire value " +
              std::to_string(*e.value) + " of '" + it->second->name +
              "'; command ids must be unique"});
    }
  }

  const AnalyzedFile* table_file = nullptr;
  const std::vector<SchemaEntry> entries = collect_entries(tree, &table_file);
  if (table_file == nullptr) {
    out.push_back(Finding{
        commands.file->src.path, commands.decl->line, "proto-schema",
        "HostCommand is declared but no register_handlers() schema table "
        "was found under src/host/"});
    return;
  }

  std::set<std::string> known;
  for (const Enumerator& e : commands.decl->enumerators) known.insert(e.name);

  std::map<std::string, std::vector<int>> entry_count;
  for (const SchemaEntry& entry : entries) {
    entry_count[entry.enumerator].push_back(entry.line);
    if (known.count(entry.enumerator) == 0) {
      out.push_back(Finding{
          table_file->src.path, entry.line, "proto-schema",
          "schema entry references unknown command '" + entry.enumerator +
              "' (not an enumerator of HostCommand)"});
    }
  }
  for (const auto& [name, lines] : entry_count) {
    if (lines.size() > 1) {
      out.push_back(Finding{
          table_file->src.path, lines[1], "proto-schema",
          "command '" + name + "' has " + std::to_string(lines.size()) +
              " schema entries; exactly one is required"});
    }
  }
  for (const Enumerator& e : commands.decl->enumerators) {
    if (entry_count.count(e.name) == 0) {
      out.push_back(Finding{
          commands.file->src.path, e.line, "proto-schema",
          "command '" + e.name +
              "' has no dispatcher schema entry in register_handlers()"});
    }
  }

  // --- proto-names -----------------------------------------------------------
  check_name_coverage(tree, commands, "host_command_name", out);
  check_name_coverage(tree, find_enum(tree, "HostStatus"), "host_status_name",
                      out);
}

}  // namespace biosense::analyze
