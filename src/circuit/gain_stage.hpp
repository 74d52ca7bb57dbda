// Calibrated current-gain stage with a single-pole bandwidth limit.
//
// Fig. 6 of the paper amplifies the pixel difference current through a
// cascade of current mirrors: x100 and x7 on chip (readout amplifier,
// BW = 4 MHz), x4 and x2 off chip (output driver, BW = 32 MHz). Mirror
// ratios suffer from device mismatch, so "the subsequent current gain
// stages also undergo a calibration procedure before used for signal
// amplification" — modeled here as measuring the stage's actual gain and
// offset with a known reference input and storing digital correction
// factors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "noise/mismatch.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::circuit {

struct GainStageParams {
  double nominal_gain = 100.0;
  double bandwidth_hz = 4e6;
  /// Relative 1-sigma spread of the as-fabricated gain (mirror mismatch).
  double gain_sigma = 0.03;
  /// 1-sigma input-referred offset current, A.
  double offset_sigma = 50e-9;
  /// Output current compliance (saturation), A; 0 disables clipping.
  double out_limit = 0.0;
};

class GainStage {
 public:
  GainStage(GainStageParams params, Rng rng);

  /// Advances the stage by dt with input current `i_in`; returns the output
  /// current after the single-pole response (and calibration corrections if
  /// calibrated).
  double step(double i_in, double dt);

  /// Single-pole decay factor exp(-dt/tau) for this stage's bandwidth. A
  /// fixed-dt caller (the frame capture kernel steps every stage with the
  /// same half-dwell) hoists this once per frame and uses step_with(),
  /// which is bit-identical to step() at the same dt.
  double decay(double dt) const;

  /// step() with the exp(-dt/tau) factor precomputed by decay().
  double step_with(double i_in, double a) {
    double target = actual_gain_ * (i_in + offset_);
    if (calibrated_) target = target * corr_gain_ + corr_offset_;
    if (params_.out_limit > 0.0) {
      target = std::clamp(target, -params_.out_limit, params_.out_limit);
    }
    i_out_ = i_out_ * a + target * (1.0 - a);
    return i_out_;
  }

  /// Measures the stage with two reference inputs and stores gain/offset
  /// corrections, emulating the chip's calibration phase. After this,
  /// steady-state gain error and offset are cancelled to `residual`
  /// (relative), modeling the finite resolution of the correction DAC.
  void calibrate(double i_ref, double residual = 1e-3);

  /// True (post-fab) gain including mismatch — what calibration estimates.
  double actual_gain() const { return actual_gain_; }
  double nominal_gain() const { return params_.nominal_gain; }
  double offset() const { return offset_; }
  double output() const { return i_out_; }
  void reset_state() { i_out_ = 0.0; }

  /// Calibration corrections + the single-pole filter memory (`i_out_` is
  /// per-sample state — dropping it would bend the first resumed sample).
  void save_state(snapshot::StateWriter& w) const {
    w.f64(corr_gain_);
    w.f64(corr_offset_);
    w.b(calibrated_);
    w.f64(i_out_);
  }
  void load_state(snapshot::StateReader& r) {
    corr_gain_ = r.f64();
    corr_offset_ = r.f64();
    calibrated_ = r.b();
    i_out_ = r.f64();
  }

 private:
  GainStageParams params_;  // analyze:transient - frozen config
  // analyze:transient - as-fabricated values, re-derived at construction
  double actual_gain_;
  double offset_;  // analyze:transient - as-fabricated, re-derived at construction
  double corr_gain_ = 1.0;    // digital gain correction
  double corr_offset_ = 0.0;  // output-referred offset correction, A
  bool calibrated_ = false;
  double i_out_ = 0.0;
};

/// Specification of one stage in a chain.
struct StageSpec {
  double gain = 1.0;
  double bandwidth_hz = 4e6;
  /// Multiplier applied to the chain's base offset sigma for this stage
  /// (offsets referred to each stage's input scale with preceding gain).
  double offset_scale = 1.0;
};

/// Convenience: builds the paper's four-stage chain (x100, x7 on chip at
/// 4 MHz; x4, x2 off chip at 32 MHz) with mismatch drawn from `rng`.
struct GainChain {
  explicit GainChain(Rng rng, double gain_sigma = 0.03,
                     double offset_sigma = 20e-9);

  /// Builds a chain from an explicit stage list.
  GainChain(const std::vector<StageSpec>& specs, Rng rng, double gain_sigma,
            double offset_sigma);

  /// The paper's on-chip row stages: x100, x7, both at the 4 MHz readout
  /// amplifier bandwidth.
  static GainChain on_chip(Rng rng, double gain_sigma = 0.03,
                           double offset_sigma = 20e-9);
  /// The paper's off-chip channel stages: x4, x2 behind the 32 MHz driver.
  static GainChain off_chip(Rng rng, double gain_sigma = 0.03,
                            double offset_sigma = 20e-9);

  /// Steps all four stages in cascade.
  double step(double i_in, double dt);

  /// Fills `out[k]` with stages[k].decay(dt); `out` must hold
  /// stages.size() entries. Pair with step_with() in fixed-dt loops.
  void decays(double dt, double* out) const;

  /// step() with per-stage decay factors precomputed by decays().
  double step_with(double i_in, const double* a) {
    double x = i_in;
    for (std::size_t k = 0; k < stages.size(); ++k) {
      x = stages[k].step_with(x, a[k]);
    }
    return x;
  }
  /// Calibrates each stage with a reference current scaled to its input
  /// range.
  void calibrate(double i_ref, double residual = 1e-3);

  double total_nominal_gain() const;  // = 100*7*4*2 = 5600

  void save_state(snapshot::StateWriter& w) const {
    w.u32(static_cast<std::uint32_t>(stages.size()));
    for (const GainStage& s : stages) s.save_state(w);
  }
  void load_state(snapshot::StateReader& r) {
    if (r.u32() != stages.size()) {
      r.fail();
      return;
    }
    for (GainStage& s : stages) s.load_state(r);
  }

  std::vector<GainStage> stages;
};

}  // namespace biosense::circuit
