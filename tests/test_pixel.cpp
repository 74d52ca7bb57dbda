#include "neurochip/pixel_bank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"

namespace biosense::neurochip {
namespace {

/// A one-pixel bank; the pixel's generator is `rng.fork()`.
PixelBank one_pixel(const PixelParams& p, noise::MismatchSampler& ms,
                    Rng& rng) {
  PixelBank bank;
  bank.build(p, 1, 1, ms, rng);
  return bank;
}

PixelParams quiet_pixel() {
  PixelParams p;
  p.noise_white_psd = VoltagePsd(0.0);
  p.noise_flicker_kf = VoltageSq(0.0);
  return p;
}

noise::MismatchSampler sampler(std::uint64_t seed = 1) {
  return noise::MismatchSampler({12e-9, 0.02e-6}, Rng(seed));
}

TEST(Pixel, UncalibratedOffsetHasPelgromScale) {
  // The headline problem of Section 3: raw pixel offsets are tens of mV,
  // i.e. orders of magnitude above the 100 uV signal floor.
  auto ms = sampler(42);
  RunningStats offsets;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    auto px = one_pixel(quiet_pixel(), ms, rng);
    offsets.add(px.input_referred_offset(0));
  }
  // sigma of the M1/M2 offset combination: >= sigma_vt(M1) ~ 17 mV for the
  // default 1 um x 0.5 um device.
  EXPECT_GT(offsets.stddev(), 5e-3);
  EXPECT_LT(offsets.stddev(), 80e-3);
}

TEST(Pixel, CalibrationCollapsesOffset) {
  auto ms = sampler(43);
  Rng rng(8);
  RunningStats uncal, cal;
  for (int i = 0; i < 300; ++i) {
    auto px = one_pixel(quiet_pixel(), ms, rng);
    uncal.add(std::abs(px.input_referred_offset(0)));
    px.calibrate(0);
    cal.add(std::abs(px.input_referred_offset(0)));
  }
  // Calibration must buy better than one order of magnitude.
  EXPECT_LT(cal.mean() * 10.0, uncal.mean());
  // Residual = charge-injection pedestal, sub-mV scale.
  EXPECT_LT(cal.mean(), 1.5e-3);
}

class PixelCalibrationSweep : public ::testing::TestWithParam<double> {};

TEST_P(PixelCalibrationSweep, WorksAcrossMismatchSeverity) {
  // Property: whatever the process matching quality (A_VT from great to
  // terrible), post-calibration residuals stay pinned at the pedestal
  // level — calibration decouples the pixel from the process.
  const double a_vt = GetParam();
  noise::MismatchSampler ms({a_vt, 0.02e-6}, Rng(11));
  Rng rng(12);
  RunningStats cal;
  for (int i = 0; i < 150; ++i) {
    auto px = one_pixel(quiet_pixel(), ms, rng);
    px.calibrate(0);
    cal.add(std::abs(px.input_referred_offset(0)));
  }
  EXPECT_LT(cal.mean(), 1.5e-3);
}

INSTANTIATE_TEST_SUITE_P(AvtRange, PixelCalibrationSweep,
                         ::testing::Values(5e-9, 12e-9, 25e-9, 50e-9));

TEST(Pixel, ReadCurrentZeroAtBalanceAfterIdealCalibration) {
  PixelParams p = quiet_pixel();
  p.s1.injection_sigma = 0.0;
  p.s1.compensation = 1.0;  // ideal switch
  auto ms = sampler(44);
  Rng rng(9);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  EXPECT_NEAR(px.read_current(0, 0.0, 0.0), 0.0, 1e-12);
}

TEST(Pixel, SmallSignalResponseIsGmLinear) {
  PixelParams p = quiet_pixel();
  p.s1.injection_sigma = 0.0;
  p.s1.compensation = 1.0;
  auto ms = sampler(45);
  Rng rng(10);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  const double gm = px.gm(0);
  for (double v : {100e-6, 1e-3, 5e-3}) {
    EXPECT_NEAR(px.read_current(0, v, 0.0) / (gm * v), 1.0, 0.15)
        << "v=" << v;
  }
  // Sign: positive electrode excursion raises M1's current.
  EXPECT_GT(px.read_current(0, 1e-3, 0.0), 0.0);
  EXPECT_LT(px.read_current(0, -1e-3, 0.0), 0.0);
}

TEST(Pixel, DroopAccumulatesBetweenCalibrations) {
  PixelParams p = quiet_pixel();
  p.droop_leak = Current(5e-15);
  p.store_cap = Capacitance(80e-15);
  auto ms = sampler(46);
  Rng rng(11);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  const double off0 = px.input_referred_offset(0);
  // 5 fA * 1 s / 80 fF = 62.5 mV (!) if never recalibrated
  px.droop(0, px.droop_dv(1.0));
  EXPECT_NEAR(off0 - px.input_referred_offset(0), 62.5e-3, 1e-6);
  // Recalibration restores the pedestal-level residual.
  px.calibrate(0);
  EXPECT_LT(std::abs(px.input_referred_offset(0)), 2e-3);
}

TEST(Pixel, RecalibrationIntervalFromDroopBudget) {
  // Design check the paper implies: periodic calibration must run often
  // enough that droop stays below the minimum signal (100 uV).
  const PixelParams p = quiet_pixel();
  const double droop_rate = (p.droop_leak / p.store_cap).value();  // V/s
  const double t_max = 100e-6 / droop_rate;
  // With the default sizing the chip has ~ seconds of margin — consistent
  // with "periodically performed" row-parallel calibration.
  EXPECT_GT(t_max, 0.5);
}

TEST(Pixel, M2CurrentCarriesItsOwnMismatch) {
  auto ms = sampler(47);
  Rng rng(13);
  RunningStats i2;
  for (int k = 0; k < 200; ++k) {
    auto px = one_pixel(quiet_pixel(), ms, rng);
    i2.add(px.m2_current(0));
  }
  EXPECT_NEAR(i2.mean(), quiet_pixel().i_cal.value(),
              0.1 * quiet_pixel().i_cal.value());
  EXPECT_GT(i2.stddev(), 0.0);
}

TEST(Pixel, DecalibrateRestoresPowerUpState) {
  auto ms = sampler(48);
  Rng rng(14);
  auto px = one_pixel(quiet_pixel(), ms, rng);
  const double off_initial = px.input_referred_offset(0);
  px.calibrate(0);
  px.decalibrate(0);
  EXPECT_DOUBLE_EQ(px.input_referred_offset(0), off_initial);
  EXPECT_FALSE(px.calibrated(0));
}

TEST(Pixel, NoiseDrawRequiresPositiveDt) {
  PixelParams p = quiet_pixel();
  p.noise_white_psd = VoltagePsd(1e-15);
  auto ms = sampler(49);
  Rng rng(15);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  // dt = 0 disables noise: deterministic reading.
  EXPECT_DOUBLE_EQ(px.read_current(0, 1e-3, 0.0),
                   px.read_current(0, 1e-3, 0.0));
  // dt > 0 draws noise: consecutive readings differ.
  const double a = px.read_current(0, 1e-3, 1e-6);
  const double b = px.read_current(0, 1e-3, 1e-6);
  EXPECT_NE(a, b);
}

// --- S1 charge injection --------------------------------------------------

TEST(Pixel, SwitchPedestalIsNegativeElectronCharge) {
  // With neither dummy-switch compensation nor random spread, opening S1
  // dumps the nominal fraction of the channel's electrons onto the storage
  // cap: a pedestal of -Q_ch * f / C_store.
  PixelParams p = quiet_pixel();
  p.s1.compensation = 0.0;
  p.s1.injection_sigma = 0.0;
  auto ms = sampler(51);
  Rng rng(16);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  const double pedestal = -p.s1.channel_charge * p.s1.injection_fraction /
                          p.store_cap.value();
  EXPECT_LT(px.input_referred_offset(0), 0.0);
  EXPECT_NEAR(px.input_referred_offset(0), pedestal, 1e-12);
}

TEST(Pixel, CompensationCancelsNominalPedestalNotItsSpread) {
  // A perfect dummy switch cancels the nominal charge; the random part
  // remains, spread sigma * Q_ch * f / C_store across the bank.
  PixelParams p = quiet_pixel();
  p.s1.compensation = 1.0;
  p.s1.injection_sigma = 0.1;
  auto ms = sampler(52);
  Rng rng(17);
  PixelBank bank;
  bank.build(p, 64, 64, ms, rng);
  RunningStats offsets;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    bank.calibrate(i);
    offsets.add(bank.input_referred_offset(i));
  }
  const double nominal =
      p.s1.channel_charge * p.s1.injection_fraction / p.store_cap.value();
  EXPECT_NEAR(offsets.mean(), 0.0, 0.05 * nominal);
  EXPECT_NEAR(offsets.stddev(), 0.1 * nominal, 0.01 * nominal);
}

// --- Flicker noise ----------------------------------------------------------

TEST(Pixel, FlickerNoiseHasOneOverFSlope) {
  // The bank's strided 1/f synthesis, read through M1 and referred back
  // to the gate: fit the Welch PSD's log-log slope over two decades. White
  // noise is off so the fit sees the flicker poles alone.
  const double fs = 100e3;
  PixelParams p = quiet_pixel();
  p.noise_flicker_kf = PixelParams{}.noise_flicker_kf;
  auto ms = sampler(53);
  Rng rng(18);
  auto px = one_pixel(p, ms, rng);
  px.calibrate(0);
  const double gm = px.gm(0);
  std::vector<double> sig;
  sig.reserve(1 << 18);
  for (int i = 0; i < (1 << 18); ++i) {
    sig.push_back((px.read_current(0, 0.0, 1.0 / fs) - px.quiet_current(0)) /
                  gm);
  }
  const auto est = dsp::welch_psd(sig, fs, 4096);

  std::vector<double> logf, logp;
  for (std::size_t k = 0; k < est.freq.size(); ++k) {
    if (est.freq[k] < 50.0 || est.freq[k] > 5000.0) continue;
    logf.push_back(std::log10(est.freq[k]));
    logp.push_back(std::log10(est.psd[k]));
  }
  const auto fit = linear_fit(logf, logp);
  EXPECT_NEAR(fit.slope, -1.0, 0.15);
}

TEST(Pixel, RejectsInvalidConfig) {
  auto ms = sampler(50);
  PixelParams p = quiet_pixel();
  p.store_cap = 0.0_fF;
  Rng rng(1);
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  p = quiet_pixel();
  p.i_cal = 0.0_uA;
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
}

}  // namespace
}  // namespace biosense::neurochip
