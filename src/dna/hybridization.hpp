// Langmuir hybridization kinetics of a probe spot.
//
// Each test site of the microarray carries N_probe immobilized
// single-stranded probes (Fig. 2b/c). During the hybridization phase the
// chip is flooded with the analyte; species i at bulk concentration C_i
// binds with association rate k_a and unbinds with k_d,i = k_a * K_d,i.
// Competitive Langmuir kinetics on the shared probe sites:
//
//     d theta_i / dt = k_a C_i (1 - sum_j theta_j) - k_d,i theta_i
//
// The washing step (Fig. 2f/g) is the same dynamics with C_i = 0: weakly
// bound (mismatched) duplexes dissociate quickly while matched duplexes
// survive — this kinetic discrimination is what the sensor ultimately
// reads out.
#pragma once

#include <cstddef>
#include <vector>

namespace biosense::dna {

/// One species competing for the spot's probe sites.
struct BindingSpecies {
  double concentration = 0.0;  // bulk concentration during hybridization, M
  double kd = 1e-9;            // dissociation constant, M
  double theta = 0.0;          // fraction of probe sites bound by this species
};

struct HybridizationParams {
  /// Association rate constant, 1/(M s). Typical surface hybridization:
  /// 1e5..1e6.
  double ka = 1e6;
};

class SpotKinetics {
 public:
  SpotKinetics(HybridizationParams params, std::vector<BindingSpecies> species);

  /// Advances the competitive Langmuir ODE by `dt` using sub-stepped
  /// explicit integration (stable for stiff wash-off of weak binders).
  void step(double dt);

  /// Runs the hybridization phase for `duration`.
  void hybridize(double duration, double dt = 1.0);

  /// Runs the washing phase: zero bulk concentration for `duration`.
  void wash(double duration, double dt = 1.0);

  double total_theta() const;
  double theta(std::size_t i) const { return species_.at(i).theta; }
  std::size_t species_count() const { return species_.size(); }
  const std::vector<BindingSpecies>& species() const { return species_; }

 private:
  HybridizationParams params_;
  std::vector<BindingSpecies> species_;
  std::vector<double> saved_conc_;  // concentrations before a wash
  bool washing_ = false;
};

}  // namespace biosense::dna
