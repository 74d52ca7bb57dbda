// Time-series recorder for transient simulations: collects (t, value)
// samples and offers simple measurements (final value, settling time,
// min/max, crossing detection). Used by tests and by the waveform benches.
//
// Naming note: `circuit::Trace` is a *waveform* recorder (simulated
// voltages over simulated time). The similarly named `obs::TraceEvent` in
// obs/trace.hpp is an *execution* trace record for the observability
// subsystem (which code ran, when, on which thread) — the two share
// nothing but the word.
#pragma once

#include <cstddef>
#include <vector>

namespace biosense::circuit {

class Trace {
 public:
  void record(double t, double v) {
    t_.push_back(t);
    v_.push_back(v);
  }

  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  const std::vector<double>& times() const { return t_; }
  const std::vector<double>& values() const { return v_; }
  double back_value() const { return v_.back(); }
  double back_time() const { return t_.back(); }

  double min_value() const;
  double max_value() const;

  /// Times of all upward crossings of `level`.
  std::vector<double> up_crossings(double level) const;

  void clear() {
    t_.clear();
    v_.clear();
  }

 private:
  std::vector<double> t_;
  std::vector<double> v_;
};

}  // namespace biosense::circuit
