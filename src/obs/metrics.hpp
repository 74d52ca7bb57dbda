// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Design rules:
//  1. Lock-free hot path. Instruments are plain relaxed atomics; the only
//     lock in the subsystem guards *registration* (first use of a name).
//     The `BIOSENSE_COUNT`/`BIOSENSE_OBSERVE` macros cache the resolved
//     instrument in a function-local static, so a steady-state call site is
//     one guard check plus one relaxed atomic RMW.
//  2. Determinism-safe. Instruments never touch RNG streams, never branch
//     on their own values inside library code, and relaxed increments
//     commute — the snapshot totals are identical for any thread count, so
//     instrumenting the parallel capture engine cannot perturb its
//     bitwise-determinism guarantee.
//  3. Zero overhead when disabled. The instrumentation macros compile to
//     nothing unless the tree is configured with -DBIOSENSE_OBS=ON (which
//     defines BIOSENSE_OBS_ENABLED). The classes themselves are always
//     compiled so tests and tools can use the registry directly.
//
// Instruments live forever once registered: references returned by the
// registry stay valid for the life of the process (`reset()` zeroes values
// but never invalidates references, so cached call sites survive).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace biosense::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// `value <= bounds[i]` (cumulative-style upper bounds, like Prometheus
/// `le`); everything above the last bound lands in the overflow bucket.
/// Bounds are frozen at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t total_count() const {
    return total_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;                     // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> counts_; // bounds_.size() + 1
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// `n` logarithmic bucket upper bounds: lo, lo*10, ..., lo*10^(n-1) — the
/// natural sizing for quantities spanning decades (the I2F converter's five).
std::vector<double> decade_buckets(double lo, int n);

/// Point-in-time value copy of one histogram (bounds + per-bucket counts;
/// `counts` has one entry per bound plus the trailing overflow bucket).
struct HistogramValue {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;

  bool operator==(const HistogramValue&) const = default;
};

/// Point-in-time value copy of every instrument in a registry, each kind
/// sorted by name. This is the unit the wire codec (obs/wire.hpp) encodes
/// for remote export, and what tools render into reports.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramValue>> histograms;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Process-wide instrument registry. Lookup registers on first use and is
/// mutex-protected; returned references are stable forever.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers with `bounds` on first use; later calls with the same name
  /// return the existing histogram (its original bounds win).
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds);

  /// Reserves a unique instrument-name prefix: the first claimant of `base`
  /// gets `base` back, later claimants get `base#2`, `base#3`, ... Owners
  /// of per-instance instruments (sessions, channels, pools) claim once and
  /// derive all instrument names from the returned prefix, so hundreds of
  /// same-named instances never alias each other's gauges/counters.
  std::string claim_prefix(const std::string& base);

  /// One JSON object with every instrument, keys sorted by name:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"buckets": [{"le": b, "count": n}, ...],
  ///                            "overflow": n, "count": N, "sum": S}}}
  std::string to_json() const;

  /// Value copy of every instrument, each kind sorted by name. Relaxed
  /// loads under the registration mutex: cheap, and safe against
  /// concurrent registration (instrument values may still be moving —
  /// a snapshot is a point-in-time observation, not a barrier).
  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument's value. References stay valid; intended for
  /// tests and for benches isolating phases.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;  // guards the maps, not the instruments
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::uint64_t> prefix_claims_;
};

}  // namespace biosense::obs

// --- instrumentation macros -------------------------------------------------
//
// Compiled to nothing unless the build defines BIOSENSE_OBS_ENABLED
// (cmake -DBIOSENSE_OBS=ON). Names must be string literals — each call site
// caches its instrument reference in a function-local static.
#if defined(BIOSENSE_OBS_ENABLED)

#define BIOSENSE_COUNT(name, n)                                              \
  do {                                                                       \
    static ::biosense::obs::Counter& biosense_obs_c =                        \
        ::biosense::obs::Registry::global().counter(name);                   \
    biosense_obs_c.add(static_cast<std::uint64_t>(n));                       \
  } while (0)

#define BIOSENSE_GAUGE(name, v)                                              \
  do {                                                                       \
    static ::biosense::obs::Gauge& biosense_obs_g =                          \
        ::biosense::obs::Registry::global().gauge(name);                     \
    biosense_obs_g.set(static_cast<double>(v));                              \
  } while (0)

#define BIOSENSE_OBSERVE(name, bounds, v)                                    \
  do {                                                                       \
    static ::biosense::obs::Histogram& biosense_obs_h =                      \
        ::biosense::obs::Registry::global().histogram(name, bounds);         \
    biosense_obs_h.observe(static_cast<double>(v));                          \
  } while (0)

#else

#define BIOSENSE_COUNT(name, n) ((void)0)
#define BIOSENSE_GAUGE(name, v) ((void)0)
#define BIOSENSE_OBSERVE(name, bounds, v) ((void)0)

#endif  // BIOSENSE_OBS_ENABLED
