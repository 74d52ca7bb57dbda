#include "circuit/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::circuit {
namespace {

MosfetParams nmos() { return MosfetParams{}; }

MosfetParams pmos() {
  MosfetParams p;
  p.type = MosType::kPmos;
  p.kp = 40e-6;
  return p;
}

TEST(Mosfet, OffBelowThresholdDeepSubthreshold) {
  Mosfet m(nmos());
  // 300 mV below VT: current should be far below a nA for a 1 um device.
  const double id = m.drain_current(0.4, 2.0, 0.0);
  EXPECT_GT(id, 0.0);  // EKV never hard-zero
  EXPECT_LT(id, 1e-9);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  Mosfet m(nmos());
  // One subthreshold decade per n*VT*ln(10) ~ 80 mV at n=1.35, 300 K.
  const double i1 = m.drain_current(0.30, 2.0, 0.0);
  const double dv = m.params().n * thermal_voltage(300.0).value() * std::log(10.0);
  const double i2 = m.drain_current(0.30 + dv, 2.0, 0.0);
  EXPECT_NEAR(i2 / i1, 10.0, 0.5);
}

TEST(Mosfet, StrongInversionQuadraticLaw) {
  Mosfet m(nmos());
  // Well above VT the saturation current grows ~ (VGS-VT)^2: doubling the
  // overdrive should roughly quadruple the current (within EKV/CLM slack).
  const double i1 = m.drain_current(0.7 + 0.5, 3.0, 0.0);
  const double i2 = m.drain_current(0.7 + 1.0, 3.0, 0.0);
  EXPECT_NEAR(i2 / i1, 4.0, 0.6);
}

TEST(Mosfet, TriodeToSaturationMonotonicInVds) {
  Mosfet m(nmos());
  double prev = 0.0;
  for (double vds = 0.05; vds <= 3.0; vds += 0.05) {
    const double id = m.drain_current(1.5, vds, 0.0);
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  Mosfet m(nmos());
  EXPECT_NEAR(m.drain_current(1.5, 0.0, 0.0), 0.0, 1e-15);
}

TEST(Mosfet, GmPositiveAndGrowsWithBias) {
  Mosfet m(nmos());
  const double gm1 = m.gm(1.0, 2.0, 0.0);
  const double gm2 = m.gm(1.5, 2.0, 0.0);
  EXPECT_GT(gm1, 0.0);
  EXPECT_GT(gm2, gm1);
}

TEST(Mosfet, GdsReflectsChannelLengthModulation) {
  MosfetParams p = nmos();
  p.lambda = 0.0;
  Mosfet ideal(p);
  p.lambda = 0.1;
  Mosfet real(p);
  // Output conductance from the drain-current slope in saturation.
  const auto gds = [](const Mosfet& m) {
    return (m.drain_current(1.5, 2.6, 0.0) - m.drain_current(1.5, 2.4, 0.0)) /
           0.2;
  };
  const double gds_ideal = gds(ideal);
  const double gds_real = gds(real);
  EXPECT_GT(gds_real, gds_ideal);
  EXPECT_GT(gds_real, 0.0);
}

class MosfetVgsRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(MosfetVgsRoundTrip, VgsForCurrentInvertsTransfer) {
  // Across eight decades (pA..100 uA) the solved gate voltage reproduces
  // the requested current — the property the pixel calibration loop and
  // the I2F regulation rely on.
  const double id = GetParam();
  Mosfet m(nmos());
  const double vg = m.vgs_for_current(id, 2.0, 0.0);
  EXPECT_NEAR(m.drain_current(vg, 2.0, 0.0) / id, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Currents, MosfetVgsRoundTrip,
                         ::testing::Values(1e-12, 10e-12, 1e-9, 100e-9, 1e-6,
                                           10e-6, 100e-6));

TEST(Mosfet, PmosMirrorsNmos) {
  Mosfet p(pmos());
  // Source at 5 V, gate pulled low: conducts; gate at source: off.
  const double on = p.drain_current(3.5, 0.0, 5.0);
  const double off = p.drain_current(5.0, 0.0, 5.0);
  EXPECT_GT(on, 1e-6);
  EXPECT_LT(off, on * 1e-3);
}

TEST(Mosfet, PmosVgsForCurrent) {
  Mosfet p(pmos());
  const double vg = p.vgs_for_current(10e-6, 0.0, 5.0);
  EXPECT_LT(vg, 5.0 - 0.5);  // gate well below source
  EXPECT_NEAR(p.drain_current(vg, 0.0, 5.0) / 10e-6, 1.0, 1e-6);
}

TEST(Mosfet, ThresholdMismatchShiftsTransfer) {
  noise::DeviceMismatch mm;
  mm.delta_vt = 20e-3;
  Mosfet shifted(nmos(), mm);
  Mosfet nominal(nmos());
  // In subthreshold a +20 mV VT shift divides the current by
  // exp(20mV / (n VT)).
  const double ratio = nominal.drain_current(0.4, 2.0, 0.0) /
                       shifted.drain_current(0.4, 2.0, 0.0);
  const double expected =
      std::exp(20e-3 / (nominal.params().n * thermal_voltage(300.0).value()));
  EXPECT_NEAR(ratio, expected, 0.05 * expected);
}

TEST(Mosfet, BetaMismatchScalesCurrent) {
  noise::DeviceMismatch mm;
  mm.beta_ratio = 1.1;
  Mosfet big(nmos(), mm);
  Mosfet nominal(nmos());
  const double ratio =
      big.drain_current(1.5, 2.0, 0.0) / nominal.drain_current(1.5, 2.0, 0.0);
  EXPECT_NEAR(ratio, 1.1, 1e-3);
}

TEST(Mosfet, WidthScalesCurrentLinearly) {
  MosfetParams p = nmos();
  Mosfet m1(p);
  p.w *= 4.0;
  Mosfet m4(p);
  EXPECT_NEAR(m4.drain_current(1.5, 2.0, 0.0) / m1.drain_current(1.5, 2.0, 0.0),
              4.0, 0.01);
}

TEST(Mosfet, RejectsInvalidParams) {
  MosfetParams p = nmos();
  p.w = 0.0;
  EXPECT_THROW(Mosfet{p}, ConfigError);
  p = nmos();
  p.n = 0.5;
  EXPECT_THROW(Mosfet{p}, ConfigError);
  p = nmos();
  p.kp = -1.0;
  EXPECT_THROW(Mosfet{p}, ConfigError);
}

TEST(Mosfet, VgsForCurrentRejectsNonPositive) {
  Mosfet m(nmos());
  EXPECT_THROW(m.vgs_for_current(0.0, 2.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace biosense::circuit
