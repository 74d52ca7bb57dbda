// Trace and reference tests.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/references.hpp"
#include "circuit/trace.hpp"
#include "common/error.hpp"

namespace biosense::circuit {
namespace {

// --- Trace ------------------------------------------------------------------

TEST(Trace, CrossingsDetected) {
  Trace t;
  for (int i = 0; i <= 100; ++i) {
    t.record(i * 1e-3, std::sin(2.0 * 3.14159265 * i / 50.0));
  }
  // Level 0.5 is crossed upward once per period (avoids the numerically
  // ambiguous zero crossings at the sample ends).
  const auto ups = t.up_crossings(0.5);
  EXPECT_EQ(ups.size(), 2u);
  EXPECT_TRUE(t.up_crossings(2.0).empty());
}

TEST(Trace, MinMax) {
  Trace t;
  for (int i = 0; i <= 1000; ++i) {
    const double v = 1.0 - std::exp(-i / 100.0);
    t.record(i * 1e-6, v);
  }
  EXPECT_NEAR(t.max_value(), 1.0, 1e-3);
  EXPECT_DOUBLE_EQ(t.min_value(), 0.0);
}

// --- BandgapReference -------------------------------------------------------

TEST(Bandgap, NominalVoltageAndCurvature) {
  BandgapParams p;
  p.trim_sigma = 0.0_V;
  p.noise_rms = 0.0_V;
  BandgapReference bg(p, Rng(1));
  EXPECT_NEAR(bg.settled_voltage(p.t_nominal_k), p.v_nominal.value(), 1e-9);
  // Parabolic curvature: symmetric droop away from the vertex.
  const double droop_cold =
      p.v_nominal.value() - bg.settled_voltage(p.t_nominal_k - 40.0);
  const double droop_hot =
      p.v_nominal.value() - bg.settled_voltage(p.t_nominal_k + 40.0);
  EXPECT_NEAR(droop_cold, droop_hot, 1e-12);
  EXPECT_GT(droop_hot, 0.0);
}

TEST(Bandgap, TempcoWithinSpec) {
  BandgapParams p;
  p.trim_sigma = 0.0_V;
  BandgapReference bg(p, Rng(1));
  // Good bandgap: < 50 ppm/K over the industrial range.
  EXPECT_LT(bg.tempco_ppm_per_k(273.0, 398.0), 50.0);
}

TEST(Bandgap, StartupTransient) {
  BandgapParams p;
  p.trim_sigma = 0.0_V;
  p.noise_rms = 0.0_V;
  p.startup_tau = 10.0_us;
  BandgapReference bg(p, Rng(1));
  EXPECT_NEAR(bg.voltage(300.0, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(bg.voltage(300.0, 10e-6) / bg.settled_voltage(300.0),
              1.0 - std::exp(-1.0), 0.01);
  EXPECT_NEAR(bg.voltage(300.0, 1e-3), bg.settled_voltage(300.0), 1e-6);
}

TEST(CurrentReference, TracksNominalAndTemperature) {
  BandgapParams bp;
  bp.trim_sigma = 0.0_V;
  BandgapReference bg(bp, Rng(1));
  CurrentReferenceParams cp;
  cp.spread_sigma = 0.0;
  CurrentReference iref(cp, bg, Rng(2));
  EXPECT_NEAR(iref.current(cp.t_nominal_k), cp.i_nominal.value(),
              1e-3 * cp.i_nominal.value());
  // Resistor tempco reduces the current when hot.
  EXPECT_LT(iref.current(cp.t_nominal_k + 50.0), cp.i_nominal.value());
}

}  // namespace
}  // namespace biosense::circuit
