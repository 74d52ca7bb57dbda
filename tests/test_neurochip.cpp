#include "neurochip/array.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "neurochip/recording.hpp"

namespace biosense::neurochip {
namespace {

/// `volts` on pixel (row, col), 0 V everywhere else.
class OnePixelSource final : public SignalSource {
 public:
  OnePixelSource(int row, int col, double volts)
      : row_(row), col_(col), volts_(volts) {}
  double eval(int r, int c, double) const override {
    return (r == row_ && c == col_) ? volts_ : 0.0;
  }

 private:
  int row_, col_;
  double volts_;
};

/// A 1 mV, 1 kHz sine on pixel (row, col), 0 V everywhere else.
class OnePixelSine final : public SignalSource {
 public:
  OnePixelSine(int row, int col) : row_(row), col_(col) {}
  double eval(int r, int c, double t) const override {
    return (r == row_ && c == col_)
               ? 1e-3 * std::sin(2.0 * 3.14159265358979 * 1e3 * t)
               : 0.0;
  }

 private:
  int row_, col_;
};

/// Uniform k mV during frame k of a 2 kframes/s scan. Quantized on the
/// frame *start* time: the field is sampled mid-frame at t + col*dwell,
/// so round down.
class FrameStepSource final : public SignalSource {
 public:
  double eval(int, int, double t) const override {
    return 1e-3 * std::floor(t / 500e-6 + 1e-6);
  }
};

NeuroChipConfig tiny_chip(int n = 16) {
  NeuroChipConfig c;
  c.rows = n;
  c.cols = n;
  c.pixel.noise_white_psd = VoltagePsd(0.0);
  c.pixel.noise_flicker_kf = VoltageSq(0.0);
  return c;
}

TEST(NeuroChip, PaperTimingBudget) {
  // The full-size chip: 128x128 at 2 kframes/s through 16 channels.
  NeuroChip chip(NeuroChipConfig{}, Rng(1));
  const auto t = chip.timing();
  EXPECT_EQ(chip.channels(), 16);
  EXPECT_NEAR(t.frame_period, 500e-6, 1e-12);
  EXPECT_NEAR(t.column_dwell, 500e-6 / 128.0, 1e-12);           // ~3.9 us
  EXPECT_NEAR(t.mux_slot, 500e-6 / 128.0 / 8.0, 1e-12);         // ~488 ns
  EXPECT_NEAR(t.pixel_rate_total, 128.0 * 128.0 * 2000.0, 1.0); // 32.77 MS/s
  EXPECT_NEAR(t.channel_rate, 2.048e6, 1.0);
  // Settling margins: both amplifiers get several time constants.
  EXPECT_GT(t.row_amp_settle_taus, 10.0);
  EXPECT_GT(t.driver_settle_taus, 10.0);
}

TEST(NeuroChip, SensorAreaMatchesPaper) {
  NeuroChip chip(NeuroChipConfig{}, Rng(1));
  // 128 * 7.8 um ~ 1 mm.
  EXPECT_NEAR(chip.sensor_area_side().value(), 1e-3, 0.01e-3);
}

TEST(NeuroChip, CalibrationImprovesOffsetsByOrderOfMagnitude) {
  NeuroChip chip(tiny_chip(), Rng(2));
  chip.decalibrate_all();
  const auto [mean_uncal, max_uncal] = chip.offset_stats();
  chip.calibrate_all();
  const auto [mean_cal, max_cal] = chip.offset_stats();
  EXPECT_GT(mean_uncal, 5e-3);
  EXPECT_LT(mean_cal * 10.0, mean_uncal);
  EXPECT_LT(max_cal, max_uncal);
}

TEST(NeuroChip, FrameDifferentialGainNearUnity) {
  NeuroChip chip(tiny_chip(), Rng(3));
  chip.calibrate_all();
  const auto f0 = chip.capture_frame(ConstantSource(0.0), 0.0);
  const auto f1 = chip.capture_frame(ConstantSource(1e-3), 1.0);
  RunningStats diff;
  for (std::size_t i = 0; i < f0.v_in.size(); ++i) {
    diff.add(f1.v_in[i] - f0.v_in[i]);
  }
  EXPECT_NEAR(diff.mean(), 1e-3, 0.15e-3);
}

TEST(NeuroChip, FrameLocalizesSignalToDrivenPixel) {
  NeuroChip chip(tiny_chip(), Rng(4));
  chip.calibrate_all();
  const auto f0 = chip.capture_frame(ConstantSource(0.0), 0.0);
  const auto f = chip.capture_frame(OnePixelSource(3, 5, 2e-3), 1.0);
  EXPECT_NEAR(f.at(3, 5) - f0.at(3, 5), 2e-3, 0.4e-3);
  // Neighbours see (almost) nothing.
  EXPECT_LT(std::abs(f.at(3, 6) - f0.at(3, 6)), 0.3e-3);
  EXPECT_LT(std::abs(f.at(4, 5) - f0.at(4, 5)), 0.3e-3);
}

TEST(NeuroChip, UncalibratedChipSaturates) {
  // Without calibration the mV-scale mismatch torques the x5600 chain into
  // ADC clipping on many pixels — the reason the architecture exists.
  NeuroChipConfig cfg = tiny_chip();
  NeuroChip chip(cfg, Rng(5));
  chip.decalibrate_all();
  const auto f = chip.capture_frame(ConstantSource(0.0), 0.0);
  const auto full_code =
      static_cast<std::int32_t>(1 << (cfg.adc.bits - 1)) - 1;
  int clipped = 0;
  for (auto code : f.codes) {
    if (std::abs(code) >= full_code - 1) ++clipped;
  }
  EXPECT_GT(clipped, static_cast<int>(f.codes.size() / 4));
}

TEST(NeuroChip, AdcQuantizesToLsb) {
  NeuroChipConfig cfg = tiny_chip();
  NeuroChip chip(cfg, Rng(6));
  chip.calibrate_all();
  const auto f = chip.capture_frame(ConstantSource(0.5e-3), 0.0);
  // Reconstruction uses code * lsb / conv_gain: verify consistency.
  const double lsb =
      (2.0 * cfg.adc.full_scale).value() / (1 << cfg.adc.bits);
  for (std::size_t i = 0; i < f.codes.size(); ++i) {
    EXPECT_NEAR(f.v_in[i],
                f.codes[i] * lsb / chip.nominal_conversion_gain(), 1e-12);
  }
}

TEST(NeuroChip, RecordProducesRequestedFrames) {
  NeuroChip chip(tiny_chip(8), Rng(7));
  chip.calibrate_all();
  const auto frames = chip.record(ConstantSource(0.0), 0.0, 5);
  ASSERT_EQ(frames.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_NEAR(frames[static_cast<std::size_t>(k)].t, k * 500e-6, 1e-12);
  }
}

TEST(NeuroChip, PeriodicRecalibrationCountersDroop) {
  NeuroChipConfig cfg = tiny_chip(8);
  cfg.pixel.droop_leak = Current(50e-15);  // aggressive droop
  cfg.recalibration_interval = 10.0_ms;
  NeuroChip chip(cfg, Rng(8));
  chip.calibrate_all();
  // Run 100 frames = 50 ms; recalibration every 10 ms bounds the offset.
  for (int k = 0; k < 100; ++k) {
    chip.capture_frame(ConstantSource(0.0), k * 500e-6);
  }
  const auto [mean_off, max_off] = chip.offset_stats();
  const double droop_rate =
      (cfg.pixel.droop_leak / cfg.pixel.store_cap).value();
  EXPECT_LT(mean_off,
            droop_rate * 3.0 * cfg.recalibration_interval.value() + 2e-3);
  (void)max_off;
}

TEST(NeuroChip, TimeMultiplexedSignalRoundtrip) {
  // Time-varying field: frame k sees k mV; reconstruction tracks it.
  NeuroChip chip(tiny_chip(8), Rng(9));
  chip.calibrate_all();
  const auto f0 = chip.capture_frame(ConstantSource(0.0), 0.0);
  const auto frames = chip.record(FrameStepSource(), 0.0, 3);
  for (std::size_t k = 1; k < frames.size(); ++k) {
    RunningStats d;
    for (std::size_t i = 0; i < frames[k].v_in.size(); ++i) {
      d.add(frames[k].v_in[i] - f0.v_in[i]);
    }
    EXPECT_NEAR(d.mean(), static_cast<double>(k) * 1e-3, 0.3e-3);
  }
}

TEST(NeuroChip, RejectsInvalidConfig) {
  NeuroChipConfig c = tiny_chip();
  c.rows = 12;  // not a multiple of mux factor 8
  EXPECT_THROW(NeuroChip(c, Rng(1)), ConfigError);
  c = tiny_chip();
  c.frame_rate = 0.0_Hz;
  EXPECT_THROW(NeuroChip(c, Rng(1)), ConfigError);
  c = tiny_chip();
  c.adc.bits = 2;
  EXPECT_THROW(NeuroChip(c, Rng(1)), ConfigError);
}

TEST(RecordingSession, GroundTruthAlignsWithRecordedSpikes) {
  // End-to-end: one synthetic neuron over a small array; the chip's
  // recorded trace at the covered pixel must correlate with the ground
  // truth (spike instants visible in both).
  neuro::CultureConfig culture_cfg;
  culture_cfg.area_size = 16 * 7.8e-6;
  culture_cfg.n_neurons = 3;
  culture_cfg.duration = 0.25;
  neuro::NeuronCulture culture(culture_cfg, Rng(21));

  NeuroChipConfig chip_cfg = tiny_chip(16);
  chip_cfg.pitch = 7.8_um;
  NeuroChip chip(chip_cfg, Rng(22));
  chip.calibrate_all();

  RecordingSession session(culture, chip);
  const auto frames = session.record(0.0, 500);
  ASSERT_EQ(frames.size(), 500u);
  EXPECT_GT(session.active_pixels(), 0u);

  // Find the pixel with the strongest ground truth.
  int best_r = -1, best_c = -1;
  double best_peak = 0.0;
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      for (double v : session.ground_truth(r, c)) {
        if (std::abs(v) > best_peak) {
          best_peak = std::abs(v);
          best_r = r;
          best_c = c;
        }
      }
    }
  }
  ASSERT_GE(best_r, 0);
  ASSERT_GT(best_peak, 50e-6);

  const auto& truth = session.ground_truth(best_r, best_c);
  std::vector<double> trace;
  for (const auto& f : frames) trace.push_back(f.at(best_r, best_c));
  // Correlation between recorded (mean-removed) and truth.
  const double mt = mean(truth);
  const double mr = mean(trace);
  double num = 0.0, dt2 = 0.0, dr2 = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double a = truth[i] - mt;
    const double b = trace[i] - mr;
    num += a * b;
    dt2 += a * a;
    dr2 += b * b;
  }
  const double corr = num / std::sqrt(dt2 * dr2 + 1e-30);
  EXPECT_GT(corr, 0.8);
}

}  // namespace
}  // namespace biosense::neurochip
