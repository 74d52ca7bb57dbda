#include "dsp/spikes.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "neuro/junction.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::dsp {
namespace {

// Builds a realistic test trace: extracellular spike template + white noise.
std::vector<double> make_trace(const std::vector<double>& spike_times,
                               double noise_rms, double fs,
                               std::size_t n_samples, Rng& rng,
                               double amplitude_scale = 1.0) {
  neuro::PointContactJunction junction{neuro::JunctionParams{}};
  auto templ = junction.spike_template(10e-6);
  for (auto& v : templ) v *= amplitude_scale;
  std::vector<double> trace;
  neuro::render_spike_waveform_into(spike_times, templ, 100e3, fs, n_samples,
                                    trace);
  for (auto& v : trace) v += rng.normal(0.0, noise_rms);
  return trace;
}

SpikeDetectorConfig chip_detector() {
  SpikeDetectorConfig cfg;
  cfg.fs = 2000.0;
  cfg.threshold_sigmas = 4.5;
  cfg.band_lo = 100.0;
  cfg.refractory = 10e-3;  // covers the full biphasic waveform
  return cfg;
}

TEST(Neo, EmphasizesTransients) {
  // NEO of a pure sinusoid is constant A^2 omega^2 (discrete approx);
  // a sudden amplitude step doubles it.
  std::vector<double> x(200);
  for (int i = 0; i < 200; ++i) {
    const double a = i < 100 ? 1.0 : 2.0;
    x[static_cast<std::size_t>(i)] = a * std::sin(0.3 * i);
  }
  const auto psi = neo(x);
  EXPECT_GT(psi[150], 2.0 * psi[50]);
}

TEST(Neo, ZeroOnConstant) {
  std::vector<double> x(50, 3.0);
  for (double v : neo(x)) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(SpikeDetector, FindsCleanSpikes) {
  Rng rng(1);
  const std::vector<double> truth{0.1, 0.35, 0.62, 0.8};
  const auto trace = make_trace(truth, 10e-6, 2000.0, 2000, rng);
  const auto spikes = detect_spikes(trace, chip_detector());
  const auto score = score_detections(spikes, truth, 5e-3);
  EXPECT_EQ(score.true_positives, 4u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_LE(score.false_positives, 1u);
}

TEST(SpikeDetector, QuietOnPureNoise) {
  Rng rng(2);
  const auto trace = make_trace({}, 30e-6, 2000.0, 4000, rng);
  const auto spikes = detect_spikes(trace, chip_detector());
  // 4.5 sigma threshold: expect at most a couple of false alarms in 2 s.
  EXPECT_LE(spikes.size(), 3u);
}

class SpikeDetectorSnr : public ::testing::TestWithParam<double> {};

TEST_P(SpikeDetectorSnr, RecallDegradesGracefullyWithNoise) {
  const double noise_rms = GetParam();
  Rng rng(3);
  std::vector<double> truth;
  for (int k = 0; k < 20; ++k) truth.push_back(0.1 + k * 0.15);
  const auto trace = make_trace(truth, noise_rms, 2000.0, 7000, rng);
  const auto spikes = detect_spikes(trace, chip_detector());
  const auto score = score_detections(spikes, truth, 5e-3);
  if (noise_rms <= 30e-6) {
    EXPECT_GT(score.recall(), 0.9) << "noise " << noise_rms;
  } else if (noise_rms >= 500e-6) {
    // Template peak ~700 uV: at 0.5 mV rms noise detection collapses.
    EXPECT_LT(score.recall(), 0.7) << "noise " << noise_rms;
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, SpikeDetectorSnr,
                         ::testing::Values(5e-6, 15e-6, 30e-6, 500e-6, 1e-3));

TEST(SpikeDetector, NeoModeAlsoDetects) {
  Rng rng(4);
  const std::vector<double> truth{0.2, 0.5, 0.75};
  const auto trace = make_trace(truth, 10e-6, 2000.0, 2000, rng);
  SpikeDetectorConfig cfg = chip_detector();
  cfg.use_neo = true;
  cfg.threshold_sigmas = 6.0;
  const auto spikes = detect_spikes(trace, cfg);
  const auto score = score_detections(spikes, truth, 5e-3);
  EXPECT_GE(score.true_positives, 2u);
}

TEST(SpikeDetector, RefractorySuppressesDoubleCounting) {
  Rng rng(5);
  const std::vector<double> truth{0.3};
  const auto trace = make_trace(truth, 5e-6, 2000.0, 1200, rng, 3.0);
  SpikeDetectorConfig cfg = chip_detector();
  const auto spikes = detect_spikes(trace, cfg);
  // One physical spike -> one detection despite the biphasic waveform.
  EXPECT_EQ(spikes.size(), 1u);
}

TEST(SpikeDetector, AmplitudeReported) {
  Rng rng(6);
  const std::vector<double> truth{0.25};
  const auto trace = make_trace(truth, 5e-6, 2000.0, 1000, rng, 2.0);
  const auto spikes = detect_spikes(trace, chip_detector());
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_GT(spikes[0].amplitude, 200e-6);
}

TEST(SpikeDetector, EmptyAndShortInputs) {
  EXPECT_TRUE(detect_spikes(std::vector<double>{}, chip_detector()).empty());
  EXPECT_TRUE(
      detect_spikes(std::vector<double>(4, 0.0), chip_detector()).empty());
}

TEST(Score, ConfusionMatrixArithmetic) {
  std::vector<DetectedSpike> detections;
  for (double t : {0.1, 0.2, 0.9}) {
    DetectedSpike s;
    s.time = t;
    detections.push_back(s);
  }
  const std::vector<double> truth{0.1, 0.2, 0.5};
  const auto score = score_detections(detections, truth, 1e-2);
  EXPECT_EQ(score.true_positives, 2u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.false_negatives, 1u);
  EXPECT_NEAR(score.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.f1(), 2.0 / 3.0, 1e-12);
}

TEST(Score, EachTruthMatchedOnce) {
  std::vector<DetectedSpike> detections(3);
  detections[0].time = 0.100;
  detections[1].time = 0.101;
  detections[2].time = 0.102;
  const std::vector<double> truth{0.1};
  const auto score = score_detections(detections, truth, 5e-3);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 2u);
}

TEST(SnrDb, KnownRatios) {
  std::vector<double> truth{1.0, -1.0, 1.0, -1.0};
  std::vector<double> same = truth;
  EXPECT_DOUBLE_EQ(snr_db(same, truth), 300.0);
  std::vector<double> noisy{1.1, -0.9, 1.1, -0.9};
  // error power 0.01 vs signal power 1 -> 20 dB.
  EXPECT_NEAR(snr_db(noisy, truth), 20.0, 1e-9);
  std::vector<double> zeros(4, 0.0);
  EXPECT_DOUBLE_EQ(snr_db(noisy, zeros), -300.0);
}

TEST(SnrDb, RejectsSizeMismatch) {
  std::vector<double> a{1.0}, b{1.0, 2.0};
  EXPECT_THROW(snr_db(a, b), ConfigError);
}

}  // namespace
}  // namespace biosense::dsp
