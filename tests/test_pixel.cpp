#include "neurochip/pixel_bank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"
#include "noise/counter.hpp"

namespace biosense::neurochip {
namespace {

/// A one-pixel bank; its noise key is one draw from `rng`.
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
  // Noise spectra.
  p = quiet_pixel();
  p.noise_white_psd = VoltagePsd(-1e-15);
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  p = quiet_pixel();
  p.noise_flicker_kf = VoltageSq(-1e-10);
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  // The calibration switch S1.
  p = quiet_pixel();
  p.s1.r_on = 0.0;
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  p = quiet_pixel();
  p.s1.injection_fraction = 1.5;
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  p = quiet_pixel();
  p.s1.compensation = -0.1;
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
  p = quiet_pixel();
  p.s1.compensation = 1.5;
  EXPECT_THROW(one_pixel(p, ms, rng), ConfigError);
}

// --- Counter-based noise engine ---------------------------------------------

/// Every pixel of `bank` once, in runs of up to kBatch along each column
/// (the frame kernel's partition); noise[i] receives pixel i's draw.
void draw_runs(PixelBank& bank, const PixelBank::FrameConsts& fc,
               std::vector<double>& noise) {
  noise.assign(bank.size(), 0.0);
  for (std::size_t start = 0; start < bank.size();
       start += PixelBank::kBatch) {
    std::size_t idx[PixelBank::kBatch];
    const int count = static_cast<int>(
        std::min<std::size_t>(PixelBank::kBatch, bank.size() - start));
    for (int j = 0; j < count; ++j) idx[j] = start + static_cast<std::size_t>(j);
    bank.draw_noise(idx, count, fc, noise.data() + start);
  }
}

TEST(Pixel, WhiteNoiseVarianceMatchesPsdAndStep) {
  // Band-limited white: var = S / (2 dt), over 64x64 pixels x 50 steps.
  PixelParams p = quiet_pixel();
  p.noise_white_psd = VoltagePsd(4e-18);
  const double dt = 1e-6;
  auto ms = sampler(60);
  Rng rng(60);
  PixelBank bank;
  bank.build(p, 64, 64, ms, rng);
  const auto& fc = bank.prepare(dt);
  RunningStats s;
  std::vector<double> noise;
  for (int step = 0; step < 50; ++step) {
    draw_runs(bank, fc, noise);
    for (double v : noise) s.add(v);
  }
  const double expected_var = 4e-18 / (2.0 * dt);
  const double n = static_cast<double>(s.count());
  EXPECT_NEAR(s.variance(), expected_var, 5.0 * std::sqrt(2.0 / n) * expected_var);
  EXPECT_NEAR(s.mean(), 0.0, 5.0 * std::sqrt(expected_var / n));
}

TEST(Pixel, DrawsArePartitionInvariant) {
  // The same (key, pixel, step) gives the same bits in a run of 8, in a
  // run of 1 in reverse pixel order, and with the runs spread over 1, 2,
  // 4 or 8 threads; and each draw is the scalar counter model's.
  PixelParams p;  // white + flicker on
  const int rows = 16;
  const int cols = 12;
  const double dt = 3.90625e-6;
  const auto make = [&] {
    auto ms = sampler(61);
    Rng rng(61);
    PixelBank bank;
    bank.build(p, rows, cols, ms, rng);
    return bank;
  };

  PixelBank runs = make();
  std::vector<std::vector<double>> want(3);
  for (auto& frame : want) draw_runs(runs, runs.prepare(dt), frame);

  PixelBank singles = make();
  const auto& fc = singles.prepare(dt);
  for (const auto& frame : want) {
    std::vector<double> got(frame.size());
    for (std::size_t i = singles.size(); i-- > 0;) {
      singles.draw_noise(&i, 1, fc, &got[i]);
    }
    EXPECT_EQ(0, std::memcmp(got.data(), frame.data(),
                             got.size() * sizeof(double)));
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
      ASSERT_EQ(runs.pole(i, k), singles.pole(i, k)) << i << "/" << k;
    }
  }

  // The scalar model: one master draw keys the bank; build consumed step 0
  // for the stationary pole start, so the first read is step 1.
  Rng probe(61);
  const std::uint64_t key = probe.next_u64();
  PixelBank fresh = make();
  const auto& fc0 = fresh.prepare(dt);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    double before[noise::kFlickerPoles];
    for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
      before[k] = fresh.pole(i, k);
    }
    double z[8];
    noise::step_normals(key, i, 1, 4, z);
    double flicker = 0.0;
    for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
      flicker += before[k] * fc0.flicker.a[k] + fc0.flicker.s[k] * z[k + 1];
    }
    ASSERT_EQ(fc0.white_sigma * z[0] + flicker, want[0][i]) << "pixel " << i;
  }

  for (int threads : {1, 2, 4, 8}) {
    set_max_threads(threads);
    PixelBank bank = make();
    const auto& fct = bank.prepare(dt);
    std::vector<double> got(bank.size());
    for (const auto& frame : want) {
      PixelBank* b = &bank;
      double* out = got.data();
      parallel_for(0, cols, [b, &fct, out, rows](std::int64_t c) {
        for (int r0 = 0; r0 < rows; r0 += PixelBank::kBatch) {
          std::size_t idx[PixelBank::kBatch];
          for (int j = 0; j < PixelBank::kBatch; ++j) {
            idx[j] = b->plane_index(r0 + j, static_cast<int>(c));
          }
          double noise[PixelBank::kBatch];
          b->draw_noise(idx, PixelBank::kBatch, fct, noise);
          for (int j = 0; j < PixelBank::kBatch; ++j) out[idx[j]] = noise[j];
        }
      });
      EXPECT_EQ(0, std::memcmp(got.data(), frame.data(),
                               got.size() * sizeof(double)))
          << threads << " threads";
    }
  }
  set_max_threads(1);
}

TEST(Pixel, QuietReadsDrawNothing) {
  // A pixel that skipped ten reads draws its next noise at the step it
  // would have used without them: with flicker off the bits are equal.
  PixelParams p = quiet_pixel();
  p.noise_white_psd = PixelParams{}.noise_white_psd;
  auto ms_a = sampler(62);
  auto ms_b = sampler(62);
  Rng rng_a(62);
  Rng rng_b(62);
  PixelBank a;
  PixelBank b;
  a.build(p, 8, 8, ms_a, rng_a);
  b.build(p, 8, 8, ms_b, rng_b);
  std::vector<double> first_a, first_b, second_a, second_b;
  draw_runs(a, a.prepare(1e-6), first_a);
  draw_runs(b, b.prepare(1e-6), first_b);
  for (int k = 0; k < 10; ++k) {
    for (std::size_t i = 0; i < a.size(); ++i) a.skip(i);
  }
  draw_runs(a, a.prepare(1e-6), second_a);
  draw_runs(b, b.prepare(1e-6), second_b);
  EXPECT_EQ(first_a, first_b);
  EXPECT_EQ(second_a, second_b);
  EXPECT_NE(first_a, second_a);
}

TEST(Pixel, QuietPixelsFastForwardTheirPolesExactly) {
  // Each pole is an OU process: after a read, k quiet frames and the next
  // read it must have advanced k + 1 steps — stationary variance sigma2 and
  // correlation a^(k+1) with its pre-gap value. 128x128 pixels per gap;
  // bounds are 6 standard errors (variance: sqrt(2/N); correlation:
  // (1 - rho^2)/sqrt(N)) plus 1e-3 for the slowest pole's near-unit rho.
  PixelParams p = quiet_pixel();
  p.noise_flicker_kf = PixelParams{}.noise_flicker_kf;
  const double dt = 3.90625e-6;  // the paper chip's column dwell
  const double sigma2 = noise::FlickerPlan(p.noise_flicker_kf.value()).sigma2;
  for (int gap : {1, 10, 1000}) {
    auto ms = sampler(63);
    Rng rng(static_cast<std::uint64_t>(63 + gap));
    PixelBank bank;
    bank.build(p, 128, 128, ms, rng);
    const auto& fc = bank.prepare(dt);
    std::vector<double> noise;
    draw_runs(bank, fc, noise);
    const std::size_t n = bank.size();
    std::vector<std::vector<double>> before(noise::kFlickerPoles,
                                            std::vector<double>(n));
    for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
      for (std::size_t i = 0; i < n; ++i) before[k][i] = bank.pole(i, k);
    }
    for (int q = 0; q < gap; ++q) {
      for (std::size_t i = 0; i < n; ++i) bank.skip(i);
    }
    draw_runs(bank, fc, noise);
    const double dn = static_cast<double>(n);
    for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
      RunningStats s;
      std::vector<double> after(n);
      for (std::size_t i = 0; i < n; ++i) {
        after[i] = bank.pole(i, k);
        s.add(after[i]);
      }
      EXPECT_NEAR(s.variance() / sigma2, 1.0,
                  6.0 * std::sqrt(2.0 / dn))
          << "gap " << gap << " pole " << k;
      double sxy = 0.0;
      RunningStats sx;
      for (std::size_t i = 0; i < n; ++i) {
        sxy += before[k][i] * after[i];
        sx.add(before[k][i]);
      }
      const double r = (sxy / dn - sx.mean() * s.mean()) /
                       (sx.stddev() * s.stddev());
      const double rho = std::pow(fc.flicker.a[k], gap + 1);
      EXPECT_NEAR(r, rho, 6.0 * (1.0 - rho * rho) / std::sqrt(dn) + 1e-3)
          << "gap " << gap << " pole " << k;
    }
  }
}

}  // namespace
}  // namespace biosense::neurochip
