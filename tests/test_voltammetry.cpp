#include "dna/voltammetry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dna {
namespace {

RedoxCouple couple() { return RedoxCouple{}; }
ElectrodeParams electrode() { return ElectrodeParams{}; }

class VoltammetryScanRate : public ::testing::TestWithParam<double> {};

TEST_P(VoltammetryScanRate, PeakMatchesRandlesSevcik) {
  // The classic reversible-couple result: peak current = Randles-Sevcik
  // prediction, across scan rates (sqrt(v) scaling).
  const double v = GetParam();
  const auto cv = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, v);
  const double expected = randles_sevcik_peak(couple(), electrode(), v);
  EXPECT_NEAR(cv.peak_anodic / expected, 1.0, 0.10) << "scan " << v;
}

INSTANTIATE_TEST_SUITE_P(ScanRates, VoltammetryScanRate,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2, 0.5));

TEST(Voltammetry, PeakSeparationNearReversibleLimit) {
  // Reversible two-electron couple: ~29.5 mV ideal separation; the finite
  // k0 and grid push it somewhat higher at faster scans.
  const auto slow = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.02);
  EXPECT_GT(slow.peak_separation(), 0.020);
  EXPECT_LT(slow.peak_separation(), 0.060);
  const auto fast = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.5);
  EXPECT_GT(fast.peak_separation(), slow.peak_separation());
}

TEST(Voltammetry, AnodicPeakNearFormalPotential) {
  const auto cv = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.05);
  // Peak sits slightly anodic of E0 (reversible: +28.5/n mV).
  EXPECT_GT(cv.e_peak_anodic, couple().e0);
  EXPECT_LT(cv.e_peak_anodic, couple().e0 + 0.06);
}

TEST(Voltammetry, SlowKineticsWidenSeparation) {
  RedoxCouple sluggish = couple();
  sluggish.k0 = 1e-7;  // quasi-/irreversible
  const auto rev = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.1);
  const auto irr = cyclic_voltammetry(sluggish, electrode(), -0.2, 0.5, 0.1);
  EXPECT_GT(irr.peak_separation(), 2.0 * rev.peak_separation());
}

TEST(Voltammetry, CurrentScalesWithAreaAndConcentration) {
  ElectrodeParams big = electrode();
  big.area *= 4.0;
  const auto base = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.1);
  const auto scaled = cyclic_voltammetry(couple(), big, -0.2, 0.5, 0.1);
  EXPECT_NEAR(scaled.peak_anodic / base.peak_anodic, 4.0, 0.05);
}

TEST(Voltammetry, PeakCurrentsInChipRange) {
  // With the default 100 um-scale electrode and 1 mM analyte, CV peak
  // currents land inside the chip's 1 pA .. 100 nA window.
  const auto cv = cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.1);
  EXPECT_GT(cv.peak_anodic, 1e-9);
  EXPECT_LT(cv.peak_anodic, 100e-9);
}

TEST(Voltammetry, RejectsInvalidArguments) {
  EXPECT_THROW(cyclic_voltammetry(couple(), electrode(), 0.1, 0.1, 0.1),
               ConfigError);
  EXPECT_THROW(cyclic_voltammetry(couple(), electrode(), -0.2, 0.5, 0.0),
               ConfigError);
  EXPECT_THROW(randles_sevcik_peak(couple(), electrode(), -1.0), ConfigError);
}

}  // namespace
}  // namespace biosense::dna
