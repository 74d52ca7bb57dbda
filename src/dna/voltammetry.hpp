// Electrode kinetics and cyclic voltammetry.
//
// The DNA chip's periphery DACs exist to hold the generator and collector
// electrodes at precise potentials around the label chemistry's redox
// potential ([4-6]). This module models the underlying electrochemistry:
// a semi-infinite diffusion simulation with Butler-Volmer electron-transfer
// kinetics at a (gold) working electrode, good enough to reproduce the
// classic cyclic-voltammetry signatures (Randles-Sevcik peak current
// scaling with sqrt(scan rate), ~59/n mV peak separation for a reversible
// couple at room temperature).
//
// Used by the chip model to pick electrode potentials and by tests to pin
// the chemistry to textbook behaviour.
#pragma once

#include <cstddef>
#include <vector>

namespace biosense::dna {

/// A one-electron (or n-electron) redox couple O + n e- <-> R.
struct RedoxCouple {
  double e0 = 0.1;           // formal potential vs reference, V
  int n_electrons = 2;       // p-aminophenol: 2-electron couple
  double k0 = 1e-4;          // standard rate constant, m/s
  double alpha = 0.5;        // transfer coefficient
  double diffusion = 8e-10;  // m^2/s for both O and R (simplification)
};

struct ElectrodeParams {
  double area = 1e-8;        // m^2 (100 um x 100 um)
  double temp_k = 298.15;
  double bulk_conc = 1.0;    // mol/m^3 (= 1 mM) of the reduced species
};

struct Voltammogram {
  std::vector<double> potential;  // V
  std::vector<double> current;    // A
  double peak_anodic = 0.0;       // A
  double peak_cathodic = 0.0;     // A
  double e_peak_anodic = 0.0;     // V
  double e_peak_cathodic = 0.0;   // V

  /// Peak separation, V (reversible couple: ~59 mV / n at 25 C).
  double peak_separation() const { return e_peak_anodic - e_peak_cathodic; }
};

/// Simulates one full cyclic-voltammetry cycle from e_start to e_vertex and
/// back at `scan_rate` (V/s) using an explicit 1-D finite-difference
/// diffusion grid. The electrolyte initially contains only the reduced
/// species at bulk concentration.
Voltammogram cyclic_voltammetry(const RedoxCouple& couple,
                                const ElectrodeParams& electrode,
                                double e_start, double e_vertex,
                                double scan_rate,
                                std::size_t grid_points = 200);

/// Randles-Sevcik peak current prediction for a reversible couple (A):
/// i_p = 0.4463 n F A c sqrt(n F v D / (R T)).
double randles_sevcik_peak(const RedoxCouple& couple,
                           const ElectrodeParams& electrode,
                           double scan_rate);

}  // namespace biosense::dna
