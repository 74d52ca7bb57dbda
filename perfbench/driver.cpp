// perfbench_driver: runs one benchmark workload on one thread and prints
// its result as the last line of stdout (one JSON object).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-file <path>]
//
// Workloads: neuro_dense, neuro_sparse, dna_autorange, fleet_mixed (see
// NOTES.md). `--trace 1` runs the same workload with spans recorded around
// each call into a layer and writes them to the trace file; run.py turns
// that file into per-layer metrics with trace_report.py.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void LatencyHistogram::add(double ms) {
  const double pos = std::log10(std::max(ms, kMinMs) / kMinMs) * kPerDecade;
  const int bucket = std::min(static_cast<int>(pos), kBuckets - 1);
  ++buckets_[static_cast<std::size_t>(bucket)];
  ++count_;
}

double LatencyHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(p * static_cast<double>(count_)));
  std::uint64_t below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0 || static_cast<double>(below + n) < rank) {
      below += n;
      continue;
    }
    const double frac = (rank - static_cast<double>(below) - 0.5) /
                        static_cast<double>(n);
    return kMinMs * std::pow(10.0, (b + frac) / kPerDecade);
  }
  return 0.0;
}

namespace {

/// Median by nearest rank (the lower middle of an even count).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool SpanLog::write(const std::string& path,
                    const std::map<std::string, double>& other) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.begin_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.op));
    os << buf;
  }
  os << "\n],\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : other) {
    os << (first ? "" : ",") << json_string(key) << ":" << json_number(value);
    first = false;
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-file") {
      opt.trace_path = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seconds || !(opt.seconds > 0.0)) {
    return usage("need --workload and a positive --seconds");
  }
  if (opt.trace && opt.trace_path.empty()) {
    return usage("--trace 1 needs --trace-file");
  }

  // One thread, pinned before anything is built: with more, ChipSession
  // switches to its staged multi-thread graph and captures fan out across
  // shared cores, whose contention is what the benchmark must not measure.
  biosense::set_max_threads(1);
  const int threads = biosense::max_threads();

  Outcome out;
  try {
    if (opt.workload == "neuro_dense") {
      out = perfbench::run_neuro(opt, false);
    } else if (opt.workload == "neuro_sparse") {
      out = perfbench::run_neuro(opt, true);
    } else if (opt.workload == "dna_autorange") {
      out = perfbench::run_dna(opt);
    } else if (opt.workload == "fleet_mixed") {
      out = perfbench::run_fleet(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  const double peak_rss_mb =
      static_cast<double>(out.peak_rss_kb != 0 ? out.peak_rss_kb
                                               : biosense::obs::peak_rss_kb()) /
      1024.0;

  const std::size_t n = out.latency_ms.count();
  const double tail_q = out.tail_q;
  // Percentiles need ten samples beyond them; traced runs report per-layer
  // metrics instead and may hold fewer ops.
  const bool enough =
      out.window_s > 0.0 && (opt.trace || n >= perfbench::min_ops(tail_q));
  const bool correct = threads == 1 && out.attempted >= 1 &&
                       out.failed == 0 && out.warmup_failed == 0 && enough;

  std::ostringstream metrics;
  metrics << "{\"ops_per_s\":"
          << perfbench::json_number(static_cast<double>(out.attempted) /
                                    out.window_s)
          << ",\"op_p50_ms\":"
          << perfbench::json_number(out.latency_ms.quantile(0.5))
          << ",\"op_tail_ms\":"
          << perfbench::json_number(out.latency_ms.quantile(tail_q))
          << ",\"setup_s\":"
          << perfbench::json_number(perfbench::median(out.setup_s))
          << ",\"peak_rss_mb\":" << perfbench::json_number(peak_rss_mb)
          << ",\"ok_frac\":"
          << perfbench::json_number(
                 out.attempted == 0
                     ? 0.0
                     : static_cast<double>(out.attempted - out.failed) /
                           static_cast<double>(out.attempted))
          << "}";

  std::ostringstream info;
  info << "{";
  bool first = true;
  for (const auto& [key, value] : out.info) {
    info << (first ? "" : ",") << perfbench::json_string(key) << ":"
         << perfbench::json_number(value);
    first = false;
  }
  info << "}";

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(out.digest));

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"threads\":%d,\"build\":%s,"
      "\"biosense_obs\":%s,\"digest\":\"%s\",\"latency_samples\":%zu,"
      "\"tail_percentile\":%s,\"window_s\":%s,\"setup_runs\":%zu,"
      "\"untraced_ops_per_s\":%s,\"traced_ops_per_s\":%s,"
      "\"metrics\":%s,\"info\":%s}\n",
      perfbench::json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), threads,
      perfbench::json_string(PERFBENCH_BUILD_TYPE).c_str(),
      biosense::obs::compiled_with_obs() ? "\"ON\"" : "\"OFF\"", digest, n,
      perfbench::json_number(tail_q).c_str(),
      perfbench::json_number(out.window_s).c_str(), out.setup_s.size(),
      perfbench::json_number(out.untraced_ops_per_s).c_str(),
      perfbench::json_number(out.traced_ops_per_s).c_str(),
      metrics.str().c_str(), info.str().c_str());
  return 0;
}
