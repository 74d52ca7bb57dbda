// Capacitive stimulation of neurons from the chip (two-way interfacing).
//
// The Fromherz line of work the paper builds on ([17, 18]) interfaces
// neurons in both directions: the same dielectric-covered electrode that
// records can *stimulate* by applying a voltage step, which couples a
// displacement current through the cleft into the attached membrane. This
// module models that path — stimulus waveform -> capacitive cleft current
// -> membrane depolarization (Hodgkin-Huxley) -> evoked action potential —
// enabling closed-loop experiments on the simulated array.
#pragma once

#include <vector>

#include "neuro/hodgkin_huxley.hpp"
#include "neuro/junction.hpp"

namespace biosense::neuro {

struct StimulusPulse {
  double amplitude = 3.0;     // V step applied to the stimulation electrode
  double rise_time = 1e-6;    // s (edge speed sets the displacement current)
  double width = 200e-6;      // s between rising and falling edge
  bool biphasic = true;       // charge-balanced (falling edge = -step)
};

struct StimulationResult {
  bool evoked_spike = false;
  double spike_latency = 0.0;          // s from pulse onset (if evoked)
  double peak_depolarization = 0.0;    // V above rest
  std::vector<double> v_m;             // membrane trace, V
};

class CapacitiveStimulator {
 public:
  /// `junction` describes the cell/electrode contact used for coupling.
  explicit CapacitiveStimulator(JunctionParams junction);

  /// Capacitive divider from electrode step to membrane step:
  /// dV_m = dV_el * C_dielectric / (C_dielectric + C_membrane), per area.
  double voltage_coupling() const;

  /// Applies one pulse to a fresh Hodgkin-Huxley neuron and simulates
  /// `duration` seconds at `dt`.
  StimulationResult stimulate(const StimulusPulse& pulse,
                              double duration = 10e-3, double dt = 1e-6) const;

  /// Smallest pulse amplitude that evokes a spike (bisection over
  /// amplitude, fixed shape) — the stimulation threshold of this contact.
  double threshold_amplitude(StimulusPulse shape, double lo = 0.005,
                             double hi = 10.0) const;

 private:
  JunctionParams junction_;
  double cap_per_area_;  // electrode dielectric capacitance per area
};

}  // namespace biosense::neuro
