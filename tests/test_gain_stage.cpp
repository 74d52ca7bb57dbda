#include "circuit/gain_stage.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace biosense::circuit {
namespace {

GainStageParams ideal_params() {
  GainStageParams p;
  p.gain_sigma = 0.0;
  p.offset_sigma = 0.0;
  return p;
}

TEST(GainStage, SettledGainIsNominalWithoutMismatch) {
  GainStage g(ideal_params(), Rng(1));
  double out = 0.0;
  for (int i = 0; i < 100000; ++i) out = g.step(1e-9, 1e-9);
  EXPECT_NEAR(out, 100e-9, 1e-12);
}

TEST(GainStage, OnePoleBandwidth) {
  GainStageParams p = ideal_params();
  p.bandwidth_hz = 4e6;  // tau ~ 39.8 ns
  GainStage g(p, Rng(1));
  const double tau = 1.0 / (2.0 * 3.14159265358979 * 4e6);
  double t = 0.0;
  const double dt = 1e-10;
  double out = 0.0;
  while (t < tau) {
    out = g.step(1e-9, dt);
    t += dt;
  }
  EXPECT_NEAR(out / 100e-9, 1.0 - std::exp(-1.0), 0.02);
}

TEST(GainStage, MismatchMovesActualGain) {
  GainStageParams p;
  p.gain_sigma = 0.05;
  p.offset_sigma = 0.0;
  RunningStats s;
  for (int i = 0; i < 2000; ++i) {
    GainStage g(p, Rng(100 + i));
    s.add(g.actual_gain() / g.nominal_gain() - 1.0);
  }
  EXPECT_NEAR(s.stddev(), 0.05, 0.005);
}

TEST(GainStage, CalibrationCancelsGainErrorAndOffset) {
  GainStageParams p;
  p.gain_sigma = 0.10;
  p.offset_sigma = 100e-9;
  GainStage g(p, Rng(77));
  g.calibrate(1e-6, 0.0);  // perfect correction resolution
  double out = 0.0;
  for (int i = 0; i < 100000; ++i) out = g.step(1e-6, 1e-9);
  EXPECT_NEAR(out, p.nominal_gain * 1e-6, 1e-3 * p.nominal_gain * 1e-6);
  // Zero in, ~zero out.
  for (int i = 0; i < 100000; ++i) out = g.step(0.0, 1e-9);
  EXPECT_NEAR(out, 0.0, 1e-3 * p.nominal_gain * 1e-6);
}

TEST(GainStage, RejectsInvalidConfig) {
  GainStageParams p;
  p.nominal_gain = 0.0;
  EXPECT_THROW(GainStage(p, Rng(1)), ConfigError);
  p = GainStageParams{};
  p.bandwidth_hz = 0.0;
  EXPECT_THROW(GainStage(p, Rng(1)), ConfigError);
}

TEST(GainChain, PaperChainTotalsFiftySixHundred) {
  GainChain chain(Rng(5), 0.0, 0.0);
  EXPECT_DOUBLE_EQ(chain.total_nominal_gain(), 5600.0);
  EXPECT_EQ(chain.stages.size(), 4u);
}

TEST(GainChain, OnChipOffChipSplit) {
  auto on = GainChain::on_chip(Rng(1), 0.0, 0.0);
  auto off = GainChain::off_chip(Rng(2), 0.0, 0.0);
  EXPECT_DOUBLE_EQ(on.total_nominal_gain(), 700.0);
  EXPECT_DOUBLE_EQ(off.total_nominal_gain(), 8.0);
  EXPECT_DOUBLE_EQ(on.total_nominal_gain() * off.total_nominal_gain(), 5600.0);
}

double actual_gain(const GainChain& chain) {
  double g = 1.0;
  for (const auto& s : chain.stages) g *= s.actual_gain();
  return g;
}

TEST(GainChain, SettledCascadeGain) {
  GainChain chain(Rng(5), 0.0, 0.0);
  double out = 0.0;
  for (int i = 0; i < 300000; ++i) out = chain.step(1e-9, 1e-9);
  EXPECT_NEAR(out, 5600e-9, 5e-9);
}

class GainChainCalibration : public ::testing::TestWithParam<double> {};

TEST_P(GainChainCalibration, CalibrationRecoversNominalGain) {
  // Property over mismatch severity: after calibration the end-to-end gain
  // error collapses to the correction residual regardless of sigma.
  const double sigma = GetParam();
  GainChain chain(Rng(31), sigma, 10e-9);
  const double uncal_err =
      std::abs(actual_gain(chain) / chain.total_nominal_gain() - 1.0);
  chain.calibrate(1e-7, 1e-4);
  double out = 0.0;
  for (int i = 0; i < 300000; ++i) out = chain.step(1e-7, 1e-9);
  const double cal_err = std::abs(out / (5600.0 * 1e-7) - 1.0);
  EXPECT_LT(cal_err, 0.01);
  if (sigma >= 0.03) {
    EXPECT_LT(cal_err, uncal_err);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, GainChainCalibration,
                         ::testing::Values(0.01, 0.03, 0.05, 0.10));

}  // namespace
}  // namespace biosense::circuit
