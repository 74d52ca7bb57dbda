#include "obs/manifest.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::obs {

std::string results_dir() {
  if (const char* env = std::getenv("BIOSENSE_RESULTS_DIR")) {
    if (env[0] != '\0') return env;
  }
  return "results";
}

namespace {

// Reads one "<key>: <n> kB" entry from /proc/self/status.
std::uint64_t proc_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

std::uint64_t current_rss_kb() { return proc_status_kb("VmRSS"); }

std::uint64_t peak_rss_kb() { return proc_status_kb("VmHWM"); }

bool compiled_with_obs() {
#if defined(BIOSENSE_OBS_ENABLED)
  return true;
#else
  return false;
#endif
}

RunManifest& RunManifest::global() {
  static RunManifest manifest;
  return manifest;
}

void RunManifest::add_phase(std::string name, double wall_s,
                            std::uint64_t rss_kb) {
  std::lock_guard<std::mutex> lock(mutex_);
  phases_.push_back(PhaseRecord{std::move(name), wall_s, rss_kb});
}

std::vector<PhaseRecord> RunManifest::phases() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return phases_;
}

void RunManifest::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  phases_.clear();
}

std::string RunManifest::to_json(const std::string& bench_name) const {
  const auto phases = this->phases();
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\"bench\": \"" << bench_name << "\", \"obs_enabled\": "
     << (compiled_with_obs() ? "true" : "false") << ",\n \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n  {\"name\": \"" << phases[i].name
       << "\", \"wall_s\": " << phases[i].wall_s
       << ", \"rss_kb\": " << phases[i].rss_kb << "}";
  }
  os << "\n ],\n \"peak_rss_kb\": " << peak_rss_kb() << ",\n \"metrics\": "
     << snapshot_to_json(Registry::global().snapshot()) << "}\n";
  return os.str();
}

std::string RunManifest::write(const std::string& bench_name) const {
  const std::string dir = results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::string path = dir + "/" + bench_name + ".manifest.json";
  std::ofstream out(path);
  if (!out) return {};
  out << to_json(bench_name);
  return out.good() ? path : std::string{};
}

PhaseTimer::PhaseTimer(std::string name)
    : name_(std::move(name)), begin_ns_(now_ns()) {}

PhaseTimer::~PhaseTimer() {
  const double wall_s = static_cast<double>(now_ns() - begin_ns_) / 1e9;
  RunManifest::global().add_phase(std::move(name_), wall_s, current_rss_kb());
}

BenchRun::BenchRun(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  if (const char* env = std::getenv("BIOSENSE_TRACE")) {
    if (env[0] != '\0') {
      trace_path_ = env;
      Tracer::global().enable();
      if (!compiled_with_obs()) {
        std::cout << "note: BIOSENSE_TRACE is set but this build has"
                     " observability compiled out (configure with"
                     " -DBIOSENSE_OBS=ON); the trace will be empty\n";
      }
    }
  }
}

BenchRun::~BenchRun() {
  if (!trace_path_.empty()) {
    Tracer::global().disable();
    std::ofstream out(trace_path_);
    if (out) {
      Tracer::global().write_chrome_json(out);
      std::cout << "artifact: " << trace_path_ << "\n";
    }
  }
  const std::string path = RunManifest::global().write(bench_name_);
  if (!path.empty()) std::cout << "artifact: " << path << "\n";
}

}  // namespace biosense::obs
