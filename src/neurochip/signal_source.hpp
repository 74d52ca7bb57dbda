// Batched signal-source interface for the capture hot path.
//
// The chip samples one column at a time (all rows in parallel), so the
// natural readout unit is a column of electrode voltages at the column's
// dwell instant. `SignalSource::eval_column` delivers exactly that: one
// virtual call per column instead of a `std::function` invocation per
// pixel (128x fewer indirect calls on the paper's chip), and it hands the
// implementation a contiguous span it can fill with vectorizable code.
//
// `eval_column` must be const and thread-safe for concurrent distinct
// columns: the capture engine evaluates columns in parallel.
#pragma once

#include <span>

namespace biosense::neurochip {

/// Electrode-voltage source sampled column-by-column by the sequencer.
class SignalSource {
 public:
  virtual ~SignalSource() = default;

  /// Electrode voltage at a single pixel. The capture engine itself only
  /// uses the batched path; this exists for single-pixel modes and as the
  /// building block of the default `eval_column`.
  virtual double eval(int row, int col, double t) const = 0;

  /// Writes the electrode voltage of rows 0 .. out.size()-1 of `col` at
  /// time `t` into `out`. Override when the source can fill a column
  /// cheaper than out.size() virtual calls; the default loops `eval`.
  virtual void eval_column(int col, double t, std::span<double> out) const {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = eval(static_cast<int>(r), col, t);
    }
  }
};

/// Uniform electrode voltage everywhere — quiet baseline or test step.
class ConstantSource final : public SignalSource {
 public:
  explicit ConstantSource(double volts = 0.0) : volts_(volts) {}

  double eval(int, int, double) const override { return volts_; }
  void eval_column(int, double, std::span<double> out) const override {
    for (auto& v : out) v = volts_;
  }

 private:
  double volts_;
};

}  // namespace biosense::neurochip
