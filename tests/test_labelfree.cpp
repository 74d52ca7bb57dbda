#include "dna/labelfree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace biosense::dna {
namespace {

TEST(Impedance, LowFrequencyDominatedByChargeTransfer) {
  ImpedanceSensor s{RandlesParams{}};
  const auto z = s.impedance(0.01, 0.0);
  // At very low f the capacitor is open: |Z| ~ Rs + Rct.
  EXPECT_NEAR(std::abs(z),
              (RandlesParams{}.r_solution +
               RandlesParams{}.r_charge_transfer).value(),
              (0.05 * RandlesParams{}.r_charge_transfer).value());
}

TEST(Impedance, HighFrequencyDominatedBySolution) {
  ImpedanceSensor s{RandlesParams{}};
  const auto z = s.impedance(10e6, 0.0);
  EXPECT_NEAR(std::abs(z), RandlesParams{}.r_solution.value(),
              (0.05 * RandlesParams{}.r_solution).value());
}

TEST(Impedance, HybridizationRaisesMidbandMagnitude) {
  // Cdl drops and Rct rises with coverage -> |Z| grows at the measuring
  // frequency.
  ImpedanceSensor s{RandlesParams{}};
  const double f = s.optimal_frequency();
  EXPECT_GT(s.magnitude_contrast(f, 1.0), 0.05);
  EXPECT_GT(s.magnitude_contrast(f, 1.0), s.magnitude_contrast(f, 0.3));
  EXPECT_NEAR(s.magnitude_contrast(f, 0.0), 0.0, 1e-12);
}

TEST(Impedance, ContrastMonotonicInCoverage) {
  ImpedanceSensor s{RandlesParams{}};
  const double f = s.optimal_frequency();
  double prev = -1.0;
  for (double theta : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double c = s.magnitude_contrast(f, theta);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Impedance, RejectsInvalidConfig) {
  RandlesParams p;
  p.c_double_layer = 0.0_nF;
  EXPECT_THROW(ImpedanceSensor{p}, ConfigError);
  p = RandlesParams{};
  p.cap_drop_full = 1.0;
  EXPECT_THROW(ImpedanceSensor{p}, ConfigError);
  ImpedanceSensor ok{RandlesParams{}};
  EXPECT_THROW(ok.impedance(0.0, 0.5), ConfigError);
}

TEST(Fbar, DnaArealMassFormula) {
  // 1e16 probes/m^2 (1e12/cm^2), full coverage, 100-base targets:
  // 1e16 * 100 * 330 g/mol / Na = 5.5e-7 kg/m^2 (55 ng/cm^2).
  const double m = FbarSensor::dna_areal_mass(1e16, 1.0, 100);
  EXPECT_NEAR(m, 5.5e-7, 0.1e-7);
  EXPECT_DOUBLE_EQ(FbarSensor::dna_areal_mass(1e16, 0.0, 100), 0.0);
}

TEST(Fbar, FrequencyShiftIsNegativeAndLinear) {
  FbarSensor s{FbarParams{}};
  const double m = 1e-7;
  EXPECT_LT(s.frequency_shift(m), 0.0);
  EXPECT_NEAR(s.frequency_shift(2.0 * m), 2.0 * s.frequency_shift(m), 1e-9);
}

TEST(Fbar, TypicalHybridizationShiftWellAboveNoise) {
  FbarSensor s{FbarParams{}};
  const double m = FbarSensor::dna_areal_mass(1e16, 0.5, 100);
  const double shift = std::abs(s.frequency_shift(m));
  EXPECT_GT(shift, 20.0 * FbarParams{}.readout_noise);
}

TEST(Fbar, MassResolutionSubNanogramPerCm2) {
  FbarSensor s{FbarParams{}};
  // Published FBAR biosensors resolve ~ ng/cm^2 = 1e-8 kg/m^2 scales.
  EXPECT_LT(s.mass_resolution(), 1e-8);
  EXPECT_GT(s.mass_resolution(), 1e-12);
}

TEST(Fbar, RejectsInvalidConfig) {
  FbarParams p;
  p.f0 = 0.0;
  EXPECT_THROW(FbarSensor{p}, ConfigError);
  EXPECT_THROW(FbarSensor::dna_areal_mass(1e16, 1.5, 100), ConfigError);
}

}  // namespace
}  // namespace biosense::dna
