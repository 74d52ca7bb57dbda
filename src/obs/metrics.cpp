#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace biosense::obs {

namespace {

// Minimal JSON string escape; instrument names are code literals, but a
// stray quote or backslash must not corrupt the snapshot.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

void append_double(std::ostringstream& os, double v) {
  os.precision(17);
  os << v;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  // Unsorted bounds would make bucket lookup order-dependent; sort once at
  // registration so `observe` can binary-search.
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> decade_buckets(double lo, int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(std::max(0, n)));
  double b = lo;
  for (int i = 0; i < n; ++i) {
    out.push_back(b);
    b *= 10.0;
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_.try_emplace(name, bounds).first->second;
}

std::string Registry::claim_prefix(const std::string& base) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto n = ++prefix_claims_[base];
  if (n == 1) return base;
  return base + "#" + std::to_string(n);
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << escape(name) << "\": " << c.value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << escape(name) << "\": ";
    append_double(os, g.value());
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << escape(name) << "\": {\"buckets\": [";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      append_double(os, h.bounds()[i]);
      os << ", \"count\": " << h.bucket_count(i) << "}";
    }
    os << "], \"overflow\": " << h.bucket_count(h.bounds().size())
       << ", \"count\": " << h.total_count() << ", \"sum\": ";
    append_double(os, h.sum());
    os << "}";
  }
  os << "}}";
  return os.str();
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c.value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g.value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramValue v;
    v.bounds = h.bounds();
    v.counts.reserve(h.bounds().size() + 1);
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      v.counts.push_back(h.bucket_count(i));
    }
    v.total = h.total_count();
    v.sum = h.sum();
    snap.histograms.emplace_back(name, std::move(v));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& kv : counters_) kv.second.reset();
  for (auto& kv : gauges_) kv.second.reset();
  for (auto& kv : histograms_) kv.second.reset();
}

}  // namespace biosense::obs
