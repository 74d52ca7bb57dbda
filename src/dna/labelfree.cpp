#include "dna/labelfree.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dna {

ImpedanceSensor::ImpedanceSensor(RandlesParams params) : params_(params) {
  require(params.r_solution > Resistance(0.0) &&
              params.c_double_layer > Capacitance(0.0) &&
              params.r_charge_transfer > Resistance(0.0),
          "ImpedanceSensor: network elements must be positive");
  require(params.cap_drop_full >= 0.0 && params.cap_drop_full < 1.0,
          "ImpedanceSensor: capacitance drop must be in [0,1)");
}

std::complex<double> ImpedanceSensor::impedance(double f_hz,
                                                double theta) const {
  require(f_hz > 0.0, "ImpedanceSensor: frequency must be positive");
  const double cdl =
      (params_.c_double_layer * (1.0 - params_.cap_drop_full * theta)).value();
  const double rct =
      (params_.r_charge_transfer * (1.0 + params_.rct_rise_full * theta))
          .value();
  const std::complex<double> jw(0.0, 2.0 * constants::kPi * f_hz);
  // Randles: Rs + (Cdl || Rct).
  const std::complex<double> z_c = 1.0 / (jw * cdl);
  const std::complex<double> z_par = z_c * rct / (z_c + rct);
  return params_.r_solution.value() + z_par;
}

double ImpedanceSensor::magnitude_contrast(double f_hz, double theta) const {
  const double bare = std::abs(impedance(f_hz, 0.0));
  const double covered = std::abs(impedance(f_hz, theta));
  return (covered - bare) / bare;
}

double ImpedanceSensor::optimal_frequency(double f_lo, double f_hi) const {
  require(f_hi > f_lo && f_lo > 0.0, "ImpedanceSensor: bad search band");
  double best_f = f_lo;
  double best = 0.0;
  for (double f = f_lo; f <= f_hi * 1.0001; f *= 1.2) {
    const double c = std::abs(magnitude_contrast(f, 1.0));
    if (c > best) {
      best = c;
      best_f = f;
    }
  }
  return best_f;
}

FbarSensor::FbarSensor(FbarParams params) : params_(params) {
  require(params.f0 > 0.0 && params.q_factor > 0.0,
          "FbarSensor: resonator parameters must be positive");
  require(params.mass_sensitivity > 0.0,
          "FbarSensor: sensitivity must be positive");
}

double FbarSensor::dna_areal_mass(double probe_density, double theta,
                                  std::size_t target_bases) {
  require(probe_density >= 0.0 && theta >= 0.0 && theta <= 1.0,
          "FbarSensor: invalid coverage");
  // ~660 g/mol per base pair; bound target adds its single strand
  // (~330 g/mol per base).
  const double kg_per_target =
      330.0 * static_cast<double>(target_bases) / constants::kAvogadro / 1e3;
  return probe_density * theta * kg_per_target;
}

double FbarSensor::frequency_shift(double areal_mass) const {
  return -params_.mass_sensitivity * areal_mass;
}

double FbarSensor::mass_resolution() const {
  // Differential measurement doubles the noise power; 3-sigma criterion.
  return 3.0 * params_.readout_noise * std::sqrt(2.0) /
         params_.mass_sensitivity;
}

}  // namespace biosense::dna
