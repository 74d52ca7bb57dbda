// In-sensor-site A/D conversion by current-to-frequency conversion (Fig. 3).
//
// The sensor electrode is held at its electrochemical potential by a
// regulation loop (op-amp + source follower); the sensor current is
// mirrored onto an integrating capacitor C_int. When the ramp reaches the
// comparator's switching threshold, a reset pulse (comparator propagation
// delay + delay stage + reset device on-time) discharges C_int and the
// cycle repeats; a digital counter counts reset pulses within a gate time.
//
//   period  T(I) = C_int * dV / I + t_dead,   t_dead = t_cmp + t_delay + t_rst
//   f(I) = 1/T  ~  I / (C_int * dV)  for  I << C_int*dV/t_dead
//
// Two simulation modes:
//  * `measure()` — the count is the first passage of a Gaussian walk (one
//    noisy cycle length per comparator decision) past the gate time, drawn
//    exactly in distribution from two comparator draws whatever the current
//    or gate. Offset, per-cycle noise, leakage and reset residual included.
//  * `transient_waveform()` — fixed-step simulation using the behavioral
//    comparator, for waveform inspection (the Fig. 3 sawtooth).
#pragma once

#include <cstdint>

#include "circuit/comparator.hpp"
#include "circuit/trace.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::i2f {

struct I2fConfig {
  Capacitance c_int = 140.0_fF;      // integrating capacitance
  Voltage v_reset = 0.3_V;           // ramp start voltage
  Voltage v_threshold = 1.0_V;       // comparator switching threshold
  Time comparator_delay = 25.0_ns;   // t_cmp
  Time delay_stage = 50.0_ns;        // t_delay
  Time reset_width = 100.0_ns;       // reset device on-time
  Voltage comparator_noise_rms = 300.0_uV;   // per-decision threshold noise
  Voltage comparator_offset_sigma = 2.0_mV;  // static offset spread
  Current leakage = 20.0_fA;         // parasitic electrode/reset leakage
  Voltage reset_residual_v = 1.0_mV;  // incomplete discharge above v_reset

  /// Ramp swing per cycle.
  constexpr Voltage delta_v() const { return v_threshold - v_reset; }
  /// Dead time per cycle (comparator + delay stage + reset).
  constexpr Time dead_time() const {
    return comparator_delay + delay_stage + reset_width;
  }
};

/// Result of one gated conversion.
struct Conversion {
  std::uint64_t count = 0;     // reset pulses within the gate time
  double gate_time = 0.0;      // s
  double mean_frequency = 0.0; // count / gate_time, Hz
  double first_period = 0.0;   // s (0 if no complete cycle)
};

class SawtoothConverter {
 public:
  SawtoothConverter(I2fConfig config, Rng rng);

  /// Ideal conversion frequency for a sensor current (no noise, no offset).
  double ideal_frequency(double i_sensor) const;

  /// Dead time per cycle (comparator + delay stage + reset).
  double dead_time() const;

  /// Current at which the dead time equals the ramp time — the upper corner
  /// of the converter's linear range.
  double compression_corner_current() const;

  /// Closed-form conversion of a constant sensor current over `gate_time`
  /// (both finite, gate positive); always exactly two comparator draws.
  Conversion measure(double i_sensor, double gate_time);

  /// Fixed-step transient producing the integrator-node waveform.
  circuit::Trace transient_waveform(double i_sensor, double duration,
                                    double dt);

  const I2fConfig& config() const { return config_; }
  double comparator_offset() const;

  /// The comparator's noise stream is the converter's only evolving state:
  /// two draws per `measure()`, one per `transient_waveform()` step.
  void save_state(snapshot::StateWriter& w) const {
    w.rng(rng_);
    comparator_.save_state(w);
  }
  void load_state(snapshot::StateReader& r) {
    r.rng(rng_);
    comparator_.load_state(r);
  }

 private:
  I2fConfig config_;  // analyze:transient - frozen config
  Rng rng_;
  circuit::Comparator comparator_;
};

}  // namespace biosense::i2f
