#include "i2f/sawtooth.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::i2f {

namespace {

circuit::ComparatorParams comparator_params(const I2fConfig& c) {
  circuit::ComparatorParams p;
  p.threshold = c.v_threshold.value();
  p.prop_delay = c.comparator_delay.value();
  p.offset_sigma = c.comparator_offset_sigma.value();
  p.noise_rms = c.comparator_noise_rms.value();
  return p;
}

}  // namespace

SawtoothConverter::SawtoothConverter(I2fConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      comparator_(comparator_params(config), rng_.fork()) {
  require(config.c_int > Capacitance(0.0), "I2F: C_int must be positive");
  require(config.v_threshold > config.v_reset,
          "I2F: threshold must exceed reset level");
  require(config.comparator_delay >= Time(0.0) &&
              config.delay_stage >= Time(0.0) &&
              config.reset_width >= Time(0.0),
          "I2F: delays must be non-negative");
}

double SawtoothConverter::dead_time() const {
  return config_.dead_time().value();
}

double SawtoothConverter::ideal_frequency(double i_sensor) const {
  if (i_sensor <= 0.0) return 0.0;
  const double ramp =
      (config_.c_int * config_.delta_v()).value() / i_sensor;
  return 1.0 / (ramp + dead_time());
}

double SawtoothConverter::compression_corner_current() const {
  // C*dV/t_dead has dimension charge/time = current.
  return (config_.c_int * config_.delta_v() / config_.dead_time()).value();
}

double SawtoothConverter::comparator_offset() const {
  return comparator_.static_offset();
}

Conversion SawtoothConverter::measure(double i_sensor, double gate_time) {
  BIOSENSE_SPAN("i2f.measure");
  require(std::isfinite(gate_time) && gate_time > 0.0,
          "I2F: gate time must be positive and finite");
  require(std::isfinite(i_sensor), "I2F: sensor current must be finite");
  Conversion out;
  out.gate_time = gate_time;

  // Two comparator decisions, both before any early return, so the noise
  // stream's position never depends on the currents measured.
  const double vth_first = comparator_.decision_threshold_up();
  const double vth_q = comparator_.decision_threshold_up();

  // Net integration current: sensor plus leakage (leakage pulls up in this
  // topology — it adds to the ramp; a sign flip would model it pulling
  // down). Below the leakage floor the converter reads the leakage, which
  // is exactly the low-end error of the real chip.
  const double i_net = i_sensor + config_.leakage.value();
  if (i_net <= 0.0) return out;

  const double c_int = config_.c_int.value();
  const double v_reset = config_.v_reset.value();
  const double t_dead = dead_time();

  // Cycle 1 ramps from v_reset to the noisy threshold, then the dead time.
  const double first =
      c_int * std::max(1e-6, vth_first - v_reset) / i_net + t_dead;
  if (first <= gate_time) {
    // Incomplete reset: later cycles ramp from v_reset + residual and last
    // m + s*z each (negative only at z ~ -2300), so the count N' of them
    // within r = gate - first has P(N' >= n) = Phi((r - n m) / (s sqrt n)).
    // Inverting at the second decision's noise q: N' = floor(x^2), x > 0
    // solving m x^2 + q s x = r, with q s = k (vth_q - theta).
    const double k = c_int / i_net;
    const double theta =
        config_.v_threshold.value() + comparator_.static_offset();
    const double m =
        k * std::max(1e-6, theta - v_reset - config_.reset_residual_v.value()) +
        t_dead;
    const double qs = k * (vth_q - theta);
    const double r = gate_time - first;
    const double root = std::sqrt(qs * qs + 4.0 * m * r);
    // Rationalised root for qs > 0 (no cancellation). The count saturates
    // at 2^63 (NaN included) rather than overflow on absurd current x gate.
    const double x = qs > 0.0 ? 2.0 * r / (qs + root) : (root - qs) / (2.0 * m);
    out.count =
        1 + static_cast<std::uint64_t>(std::min(0x1p63, std::floor(x * x)));
    out.first_period = first;
  }
  out.mean_frequency = static_cast<double>(out.count) / gate_time;
  // Conversion effort telemetry: reset cycles per gated conversion span the
  // converter's five decades, so decade buckets mirror Fig. 3's axis.
  BIOSENSE_COUNT("i2f.conversions", 1);
  BIOSENSE_COUNT("i2f.cycles", out.count);
  BIOSENSE_OBSERVE("i2f.cycles_per_conversion",
                   ::biosense::obs::decade_buckets(1.0, 7),
                   static_cast<double>(out.count));
  return out;
}

circuit::Trace SawtoothConverter::transient_waveform(double i_sensor,
                                                     double duration,
                                                     double dt) {
  require(dt > 0.0 && duration > 0.0, "I2F: invalid transient window");
  circuit::Trace trace;
  comparator_.reset();

  // Hot loop: unwrap the typed config once at the boundary.
  const double i_net = i_sensor + config_.leakage.value();
  const double c_int = config_.c_int.value();
  const double v_reset = config_.v_reset.value();
  const double v_residual = config_.reset_residual_v.value();
  const double reset_width = config_.reset_width.value();
  const double delay_stage = config_.delay_stage.value();

  double v = v_reset;
  double reset_left = 0.0;   // remaining reset-device on-time
  double delay_left = -1.0;  // remaining delay-stage time (<0 = idle)

  for (double t = 0.0; t <= duration; t += dt) {
    trace.record(t, v);
    if (reset_left > 0.0) {
      // Reset device discharges C_int toward v_reset much faster than the
      // ramp; modeled as an exponential with tau = reset_width/5.
      const double tau = reset_width / 5.0;
      v = v_reset + v_residual +
          (v - v_reset - v_residual) * std::exp(-dt / tau);
      reset_left -= dt;
      continue;
    }
    v += i_net * dt / c_int;
    if (delay_left >= 0.0) {
      delay_left -= dt;
      if (delay_left < 0.0) reset_left = reset_width;
      continue;
    }
    if (comparator_.step(v, dt)) delay_left = delay_stage;
  }
  return trace;
}

}  // namespace biosense::i2f
