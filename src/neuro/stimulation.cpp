#include "neuro/stimulation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace biosense::neuro {

namespace {
// HH membrane capacitance per area in SI: 1 uF/cm^2 = 1e-2 F/m^2.
constexpr double kMembraneCapSi = 1e-2;
}  // namespace

CapacitiveStimulator::CapacitiveStimulator(JunctionParams junction)
    : junction_(junction),
      cap_per_area_(junction.dielectric_cap_per_area) {
  require(cap_per_area_ > 0.0,
          "CapacitiveStimulator: dielectric capacitance must be positive");
}

double CapacitiveStimulator::voltage_coupling() const {
  return cap_per_area_ / (cap_per_area_ + kMembraneCapSi);
}

StimulationResult CapacitiveStimulator::stimulate(const StimulusPulse& pulse,
                                                  double duration,
                                                  double dt) const {
  require(pulse.rise_time > 0.0 && pulse.width > 0.0,
          "CapacitiveStimulator: invalid pulse shape");
  HodgkinHuxley hh;
  StimulationResult out;
  out.v_m.reserve(static_cast<std::size_t>(duration / dt) + 1);

  const double v_rest = hh.v_m();
  const double dv_membrane = pulse.amplitude * voltage_coupling();
  const double t_on = 0.5e-3;  // pulse onset
  bool rising_done = false;
  bool falling_done = false;

  for (double t = 0.0; t < duration; t += dt) {
    // Fast-edge limit: each electrode edge couples as an instantaneous
    // membrane voltage step through the capacitive divider (the membrane
    // then discharges through its own conductances).
    if (!rising_done && t >= t_on) {
      hh.add_voltage(dv_membrane);
      rising_done = true;
    }
    if (pulse.biphasic && !falling_done && t >= t_on + pulse.width) {
      hh.add_voltage(-dv_membrane);
      falling_done = true;
    }
    hh.step(0.0, dt);
    out.v_m.push_back(hh.v_m());
    out.peak_depolarization =
        std::max(out.peak_depolarization, hh.v_m() - v_rest);
    if (!out.evoked_spike && hh.v_m() > 0.0 && t > t_on + 2.0 * dt) {
      out.evoked_spike = true;
      out.spike_latency = t - t_on;
    }
  }
  return out;
}

double CapacitiveStimulator::threshold_amplitude(StimulusPulse shape,
                                                 double lo, double hi) const {
  auto evokes = [&](double amp) {
    shape.amplitude = amp;
    return stimulate(shape, 8e-3, 2e-6).evoked_spike;
  };
  require(!evokes(lo), "threshold_amplitude: lower bound already evokes");
  require(evokes(hi), "threshold_amplitude: upper bound does not evoke");
  for (int i = 0; i < 24; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (evokes(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace biosense::neuro
