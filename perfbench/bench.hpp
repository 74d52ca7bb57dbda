// Shared pieces of the end-to-end benchmark driver: run options, the
// per-run outcome every workload fills, and the in-memory span log the
// traced mode writes out as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // span file written by a traced run
};

/// Op latencies in fixed memory: log-spaced buckets, 2000 per decade from
/// 10 ns to 100 s (each 0.12 % wide). Storing every sample would grow the
/// benchmark's own footprint, and with it peak_rss_mb, with the number of
/// ops a run completes.
class LatencyHistogram {
 public:
  void add(double ms);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank `p`-quantile (0..1), interpolated within its bucket.
  double quantile(double p) const;

 private:
  static constexpr double kMinMs = 1e-5;
  static constexpr int kPerDecade = 2000;
  static constexpr int kBuckets = 10 * kPerDecade;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

/// What one run measured. Latencies are per op, in ms, timed ops only.
struct Outcome {
  std::uint64_t attempted = 0;  // timed ops issued
  std::uint64_t failed = 0;     // timed ops that failed or failed a check
  std::uint64_t warmup_failed = 0;  // warm-up ops that failed a check
  double window_s = 0.0;        // wall time of the timed ops
  LatencyHistogram latency_ms;
  double tail_q = 0.99;         // the percentile op_tail_ms reports
  std::vector<double> setup_s;  // one entry per repeated set-up
  std::uint64_t peak_rss_kb = 0;  // VmHWM after one set-up and its run
  std::uint64_t digest = 0;     // FNV-1a over the warm-up outputs
  // Traced runs: ops/s of the untraced and the traced phase.
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
  // Extra facts printed beside the metrics (counts, check summaries).
  std::map<std::string, double> info;
};

/// Wall-clock nanoseconds (steady clock, the same clock obs spans use).
inline std::uint64_t now_ns() { return biosense::obs::now_ns(); }

inline double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// FNV-1a over raw bytes, folded into `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// SplitMix64 step: derives independent sub-seeds from the run seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Spans recorded by the benchmark around its calls into each layer. Each
/// span holds name, start, end, parent span and op id; they stay in memory
/// until the run ends. Recording stops once `capacity` spans are held, so
/// the span file stays bounded on fast workloads.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// True once fewer spans than one op can record remain.
  bool full() const { return spans_.size() + 64 > capacity_; }

  /// Adds a completed span and returns its index (the id children cite).
  int add(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
          int parent, std::uint64_t op) {
    spans_.push_back({name, begin_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set later with `close`.
  int open(const char* name, std::uint64_t begin_ns, int parent,
           std::uint64_t op) {
    return add(name, begin_ns, begin_ns, parent, op);
  }
  void close(int id, std::uint64_t end_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  /// Chrome trace-event JSON ("ph": "X", microsecond ts/dur, the same
  /// layout obs::Tracer emits) with parent and op in each event's args,
  /// plus `other` as the top-level "otherData" object.
  bool write(const std::string& path,
             const std::map<std::string, double>& other) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    int parent;
    std::uint64_t op;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
};

/// Ops a timed run must hold so that ten samples lie beyond the `tail_q`
/// percentile (1000 for p99). A run continues past --seconds until it has
/// them, so the reported percentile never changes with the host's speed.
inline std::uint64_t min_ops(double tail_q) {
  return static_cast<std::uint64_t>(10.0 / (1.0 - tail_q) + 0.5);
}

/// Runs `build` and records its wall time as one set-up.
template <typename Build>
auto timed_setup(Outcome& out, Build&& build) {
  const std::uint64_t t0 = now_ns();
  auto built = build();
  out.setup_s.push_back(seconds_between(t0, now_ns()));
  return built;
}

/// Ends a measured run: reads the process's peak RSS, then times
/// `repeats - 1` further set-ups, each destroyed before the next, for the
/// setup_s median. The reading comes first so that peak_rss_mb is one
/// set-up and its run, not the allocator's history of several set-ups.
template <typename Build>
void finish_run(Outcome& out, int repeats, Build&& build) {
  out.peak_rss_kb = biosense::obs::peak_rss_kb();
  for (int i = 1; i < repeats; ++i) timed_setup(out, build);
}

// Workload entry points (one file each).
Outcome run_neuro(const Options& opt, bool sparse);
Outcome run_dna(const Options& opt);
Outcome run_fleet(const Options& opt);

}  // namespace perfbench
