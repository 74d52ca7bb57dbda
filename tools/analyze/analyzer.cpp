#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rules.hpp"

namespace biosense::analyze {

bool path_starts_with(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool is_header(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

std::string src_module(const std::string& path) {
  if (!path_starts_with(path, "src/")) return std::string();
  const std::size_t next = path.find('/', 4);
  if (next == std::string::npos) return std::string();
  return path.substr(4, next - 4);
}

std::vector<Finding> analyze(const std::vector<SourceFile>& files) {
  static const std::vector<std::string> kMacros = {
      "BIOSENSE_COUNT", "BIOSENSE_GAUGE", "BIOSENSE_OBSERVE",
      "BIOSENSE_FLIGHT", "BIOSENSE_FLIGHT_TO"};

  Tree tree;
  tree.reserve(files.size());
  for (const SourceFile& src : files) {
    AnalyzedFile af;
    af.src = src;
    af.lex = lex(src.content);
    af.facts = scan(af.lex, kMacros);
    tree.push_back(std::move(af));
  }

  Findings out;
  rule_snapshot(tree, out);
  rule_protocol(tree, out);
  rule_obs_names(tree, out);
  rule_lint_ported(tree, out);
  rule_neuro_hot_loop(tree, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return out;
}

std::string format_finding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ':' << f.line << ": " << f.rule << ": " << f.message;
  return os.str();
}

std::vector<std::pair<std::string, std::string>> rule_catalogue() {
  return {
      {"snapshot-coverage",
       "every data member of a save_state/load_state class is referenced in "
       "both hooks or annotated analyze:transient (with a reason)"},
      {"snapshot-mirror",
       "the StateWriter sequence in save_state mirrors the StateReader "
       "sequence in load_state in order and width"},
      {"snapshot-pair",
       "a class defining one of save_state/load_state defines the other"},
      {"proto-schema",
       "every HostCommand enumerator has exactly one dispatcher schema "
       "entry; no duplicate command values"},
      {"proto-names",
       "host_command_name/host_status_name cover every enumerator"},
      {"obs-name",
       "instrument and flight-event names are string literals, unique per "
       "kind and across modules, and use their module's claimed registry "
       "prefix"},
      {"no-c-rand", "C rand()/srand() banned; use common/rng.hpp (Rng)"},
      {"no-wallclock-seed",
       "time(NULL)/time(nullptr) seeding banned; seeds are explicit"},
      {"no-std-random-engine",
       "std::random_device / unseeded mt19937 bypass the Rng discipline"},
      {"raw-unit-literal",
       "raw unit-suffixed magic number in a typed config header; use a "
       "Quantity literal (escape: lint:allow-raw-unit)"},
      {"no-chrono-in-src",
       "std::chrono clocks banned in src/ outside src/obs/"},
      {"no-batch-return",
       "std::vector<NeuroFrame>-returning APIs banned in src/ headers "
       "(escape: lint:allow-batch-return)"},
      {"no-bool-fallible",
       "bool-returning fallible APIs banned in src/host/ headers "
       "(escape: lint:allow-bool)"},
      {"atomic-file-only",
       "raw file I/O in src/snapshot/ banned outside atomic_file.cpp"},
      {"one-hash",
       "FNV-1a offset basis/prime literals banned outside "
       "src/common/hash.hpp; hash through biosense::fnv1a"},
      {"neuro-hot-loop",
       "per-pixel accessor calls, heap allocation and std::function "
       "banned inside capture_frame_into and capture_channel_group — the "
       "SoA kernel stays on plane buffers (escape: analyze:allow-hot-loop)"},
  };
}

std::vector<SourceFile> load_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  if (!fs::is_directory(base / "src")) {
    throw std::runtime_error("analyze: no src/ under root '" + root + "'");
  }

  std::vector<SourceFile> files;
  for (const char* top : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path dir = base / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      std::string rel = fs::relative(entry.path(), base).generic_string();
      // The fixture corpus contains deliberate violations.
      if (path_starts_with(rel, "tests/analyze/fixtures/")) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream content;
      content << in.rdbuf();
      files.push_back(SourceFile{std::move(rel), content.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

}  // namespace biosense::analyze
