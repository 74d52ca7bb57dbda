#include "neuro/spike_train.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace biosense::neuro {
namespace {

TEST(SpikeTrain, PoissonRateApproximatelyCorrect) {
  Rng rng(1);
  const auto spikes = poisson_spike_train(10.0, 100.0, rng, 0.0);
  EXPECT_NEAR(firing_rate(spikes, 100.0), 10.0, 1.0);
}

TEST(SpikeTrain, PoissonCvNearOne) {
  Rng rng(2);
  const auto spikes = poisson_spike_train(20.0, 200.0, rng, 0.0);
  EXPECT_NEAR(isi_cv(spikes), 1.0, 0.1);
}

TEST(SpikeTrain, RefractoryPeriodEnforced) {
  Rng rng(3);
  const auto spikes = poisson_spike_train(100.0, 50.0, rng, 3e-3);
  for (double dt : isi(spikes)) EXPECT_GE(dt, 3e-3);
}

TEST(SpikeTrain, RegularTrainIsRegular) {
  Rng rng(4);
  const auto spikes = regular_spike_train(10.0, 10.0, rng, 0.0);
  // t = 0.1 .. 9.9 (+/- one spike from floating-point edge rounding).
  EXPECT_GE(spikes.size(), 99u);
  EXPECT_LE(spikes.size(), 100u);
  EXPECT_LT(isi_cv(spikes), 1e-9);
}

TEST(SpikeTrain, JitterSpreadsIsis) {
  Rng rng(5);
  const auto jittered = regular_spike_train(10.0, 100.0, rng, 5e-3);
  EXPECT_GT(isi_cv(jittered), 0.02);
  EXPECT_LT(isi_cv(jittered), 0.3);
}

TEST(SpikeTrain, BurstStructure) {
  Rng rng(6);
  const auto spikes = burst_spike_train(2.0, 4, 8e-3, 100.0, rng);
  ASSERT_GT(spikes.size(), 20u);
  // Bimodal ISI: many ~8 ms intervals, rest long.
  int intra = 0;
  for (double dt : isi(spikes)) {
    if (std::abs(dt - 8e-3) < 1e-6) ++intra;
  }
  EXPECT_GT(intra, static_cast<int>(spikes.size() / 2));
}

TEST(SpikeTrain, SpikesSortedAndInWindow) {
  Rng rng(7);
  for (const auto& spikes :
       {poisson_spike_train(30.0, 20.0, rng), regular_spike_train(30.0, 20.0, rng, 2e-3),
        burst_spike_train(3.0, 3, 5e-3, 20.0, rng)}) {
    EXPECT_TRUE(std::is_sorted(spikes.begin(), spikes.end()));
    for (double t : spikes) {
      EXPECT_GE(t, 0.0);
      EXPECT_LT(t, 20.0);
    }
  }
}

std::vector<double> render(const std::vector<double>& spikes,
                           const std::vector<double>& templ, double templ_fs,
                           double fs, std::size_t n_samples) {
  std::vector<double> out;
  render_spike_waveform_into(spikes, templ, templ_fs, fs, n_samples, out);
  return out;
}

TEST(SpikeTrain, RenderPlacesTemplateAtSpikeTime) {
  // Template: a triangle sampled at 10 kHz; one spike at t = 0.1 s,
  // rendered at 1 kHz.
  std::vector<double> templ{0.0, 0.5, 1.0, 0.5, 0.0};
  const auto wave = render({0.1}, templ, 10e3, 1e3, 200);
  // At 1 kHz, sample 100 corresponds to t=0.1 s: template value at rel=0.
  EXPECT_NEAR(wave[100], 0.0, 1e-12);
  // The template lasts 0.5 ms < one output sample; sample 101 is past it.
  EXPECT_DOUBLE_EQ(wave[101], 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(wave[static_cast<std::size_t>(i)], 0.0);
}

TEST(SpikeTrain, RenderResolvesTemplateAtHighRate) {
  std::vector<double> templ{0.0, 0.5, 1.0, 0.5, 0.0};  // 10 kHz
  const auto wave = render({0.01}, templ, 10e3, 10e3, 200);
  // Rendered at the template rate, the full shape appears verbatim.
  EXPECT_NEAR(wave[100], 0.0, 1e-12);
  EXPECT_NEAR(wave[101], 0.5, 1e-12);
  EXPECT_NEAR(wave[102], 1.0, 1e-12);
  EXPECT_NEAR(wave[103], 0.5, 1e-12);
}

TEST(SpikeTrain, RenderSuperposesOverlappingSpikes) {
  std::vector<double> templ(40, 1.0);  // 4 ms of constant 1 at 10 kHz
  const auto wave = render({0.010, 0.012}, templ, 10e3, 10e3, 300);
  // Between 12 and 14 ms both copies overlap -> amplitude 2.
  EXPECT_NEAR(wave[125], 2.0, 1e-12);
}

TEST(SpikeTrain, RenderIgnoresOutOfWindowSpikes) {
  std::vector<double> templ{1.0, 1.0};
  const auto wave = render({5.0, -1.0}, templ, 10e3, 1e3, 100);
  for (double v : wave) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SpikeTrain, IsiAndRateHelpers) {
  const std::vector<double> spikes{0.1, 0.3, 0.6};
  const auto intervals = isi(spikes);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_NEAR(intervals[0], 0.2, 1e-12);
  EXPECT_NEAR(intervals[1], 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(firing_rate(spikes, 10.0), 0.3);
  EXPECT_DOUBLE_EQ(firing_rate({}, 0.0), 0.0);
}

}  // namespace
}  // namespace biosense::neuro
