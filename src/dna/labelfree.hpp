// Label-free detection principles (Section 2, refs [7-11]).
//
// "Alternative label-free principles are under development. They focus on
// the effect of impedance or mass changes at the sensors' surfaces after
// hybridization." This module implements both families so they can be
// compared against the redox-cycling approach:
//
//  * Impedance sensor [7, 8]: the electrode/electrolyte interface is a
//    Randles network (solution resistance in series with the double-layer
//    capacitance parallel to a charge-transfer branch). Hybridization
//    densifies the molecular layer on the electrode: the double-layer
//    capacitance drops and the charge-transfer resistance rises. The chip
//    measures |Z| and phase at one or several frequencies.
//
//  * Mass sensor (film bulk acoustic resonator, FBAR [9-11]): bound DNA
//    adds mass to a resonator; the resonance frequency shifts down by the
//    Sauerbrey relation df = -S_m * dm with a sensitivity S_m set by the
//    resonator design. Detection = counting Hz against a reference
//    resonator.
#pragma once

#include <complex>
#include <vector>

#include "common/units.hpp"

namespace biosense::dna {

// --- impedance (capacitive) sensing ----------------------------------------

struct RandlesParams {
  Resistance r_solution = 2.0_kOhm;
  Capacitance c_double_layer = 20.0_nF;   // bare electrode
  Resistance r_charge_transfer = 5.0_MOhm;  // bare electrode
  /// Relative double-layer capacitance drop at full hybridization
  /// coverage (theta = 1). Published values: 5..20 %.
  double cap_drop_full = 0.12;
  /// Relative charge-transfer resistance increase at full coverage.
  double rct_rise_full = 1.5;
};

class ImpedanceSensor {
 public:
  explicit ImpedanceSensor(RandlesParams params);

  /// Complex impedance at frequency f for hybridization coverage theta.
  std::complex<double> impedance(double f_hz, double theta) const;

  /// |Z| relative change between bare and covered surface at f.
  double magnitude_contrast(double f_hz, double theta) const;

  /// Frequency at which d|Z|/dtheta is largest (searched over a log grid):
  /// where the chip should measure.
  double optimal_frequency(double f_lo = 10.0, double f_hi = 1e6) const;

  const RandlesParams& params() const { return params_; }

 private:
  RandlesParams params_;
};

// --- mass (FBAR) sensing -----------------------------------------------------

struct FbarParams {
  double f0 = 2e9;                // resonance frequency, Hz
  double q_factor = 800.0;        // loaded Q in liquid
  /// Mass sensitivity, Hz per kg/m^2 (Sauerbrey-type). ~2 GHz FBAR:
  /// ~ 2 kHz per ng/cm^2 -> 2e3 / 1e-8 kg/m^2.
  double mass_sensitivity = 2e11;
  /// Allan-deviation-limited frequency readout noise, Hz rms.
  double readout_noise = 300.0;
};

class FbarSensor {
 public:
  explicit FbarSensor(FbarParams params);

  /// Areal mass density of a hybridized DNA layer (kg/m^2) for a probe
  /// density (1/m^2), coverage theta and target length (bases).
  static double dna_areal_mass(double probe_density, double theta,
                               std::size_t target_bases);

  /// Resonance shift for an added areal mass (negative = down), Hz.
  double frequency_shift(double areal_mass) const;

  /// Smallest detectable areal mass (3 sigma of readout noise), kg/m^2.
  double mass_resolution() const;

  const FbarParams& params() const { return params_; }

 private:
  FbarParams params_;
};

}  // namespace biosense::dna
