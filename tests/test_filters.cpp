#include "dsp/filters.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dsp {
namespace {

constexpr double kFs = 10e3;

double sine_gain(Biquad f, double freq) {
  // Drive with a unit sinusoid and measure the steady-state amplitude from
  // the output power over the second half (a whole number of periods at
  // the test frequencies, so sampling does not bias it).
  const int n = 4000;
  double power = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = std::sin(2.0 * constants::kPi * freq * i / kFs);
    const double y = f.process(x);
    if (i >= n / 2) power += y * y;
  }
  return std::sqrt(2.0 * power / (n / 2));
}

TEST(Biquad, LowpassMinus3dbAtCutoff) {
  const Biquad lp = Biquad::lowpass(1000.0, kFs);
  EXPECT_NEAR(sine_gain(lp, 1000.0), 1.0 / std::sqrt(2.0), 0.01);
  EXPECT_NEAR(sine_gain(lp, 100.0), 1.0, 0.01);
  EXPECT_LT(sine_gain(lp, 4000.0), 0.1);
}

TEST(Biquad, HighpassBlocksDc) {
  Biquad hp = Biquad::highpass(500.0, kFs);
  EXPECT_NEAR(sine_gain(hp, 4000.0), 1.0, 0.02);
  EXPECT_LT(sine_gain(hp, 50.0), 0.02);
  // Process a DC signal: output decays to zero.
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = hp.process(1.0);
  EXPECT_NEAR(y, 0.0, 1e-6);
}

TEST(Biquad, RejectsOutOfRangeCutoff) {
  EXPECT_THROW(Biquad::lowpass(0.0, kFs), ConfigError);
  EXPECT_THROW(Biquad::lowpass(kFs, kFs), ConfigError);
}

}  // namespace
}  // namespace biosense::dsp
