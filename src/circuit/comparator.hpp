// Clocked-free continuous comparator with offset, hysteresis, propagation
// delay and input-referred noise. The sensor-site sawtooth ADC (Fig. 3)
// fires its reset pulse when the integrator ramp crosses this comparator's
// switching threshold; the comparator's delay and noise set part of the
// converter's dead time and jitter.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::circuit {

struct ComparatorParams {
  double threshold = 1.0;       // nominal switching threshold, V
  double hysteresis = 0.0;      // full hysteresis width, V
  double prop_delay = 10e-9;    // propagation delay, s
  double offset_sigma = 0.0;    // static offset spread (sampled once), V
  double noise_rms = 0.0;       // input-referred noise per decision, V
};

class Comparator {
 public:
  Comparator(ComparatorParams params, Rng rng);

  /// Continuous-time step: feeds the input for one dt; returns true on the
  /// cycle where the (delayed) output goes high.
  bool step(double v_in, double dt);

  /// Instantaneous effective threshold for an upward crossing, including the
  /// sampled static offset and one draw of input noise. Used by the exact
  /// closed-form I2F conversion to avoid time-stepping the ramp.
  double decision_threshold_up();

  bool output() const { return out_; }
  double static_offset() const { return offset_; }
  double prop_delay() const { return params_.prop_delay; }
  void reset();

  /// Noise stream + propagation-delay latch (the static offset is frozen
  /// die state). The stream advances once per `step()` and twice per I2F
  /// conversion; its position is essential for bit-exact resume.
  void save_state(snapshot::StateWriter& w) const {
    w.rng(rng_);
    w.b(out_);
    w.b(pending_);
    w.f64(pending_elapsed_);
  }
  void load_state(snapshot::StateReader& r) {
    r.rng(rng_);
    out_ = r.b();
    pending_ = r.b();
    pending_elapsed_ = r.f64();
  }

 private:
  ComparatorParams params_;  // analyze:transient - frozen config
  Rng rng_;
  // analyze:transient - as-fabricated offset, re-derived at construction
  double offset_ = 0.0;
  bool out_ = false;
  bool pending_ = false;
  double pending_elapsed_ = 0.0;
};

}  // namespace biosense::circuit
