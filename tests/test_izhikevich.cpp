#include "neuro/izhikevich.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::neuro {
namespace {

constexpr double kDt = 0.5e-3;

// Presets from Izhikevich (2003), Fig. 2.
constexpr IzhikevichParams kRegularSpiking{0.02, 0.2, -65.0, 8.0};
constexpr IzhikevichParams kFastSpiking{0.1, 0.2, -65.0, 2.0};
constexpr IzhikevichParams kChattering{0.02, 0.2, -50.0, 2.0};

/// Simulates `duration` seconds from rest at `dt` with constant drive `i`;
/// returns the spike times (s).
std::vector<double> run(Izhikevich& n, double i, double duration, double dt) {
  n.reset();
  std::vector<double> spikes;
  for (double t = 0.0; t < duration; t += dt) {
    if (n.step(i, dt)) spikes.push_back(t);
  }
  return spikes;
}

TEST(Izhikevich, QuietWithoutInput) {
  Izhikevich n;
  const auto spikes = run(n, 0.0, 1.0, kDt);
  EXPECT_TRUE(spikes.empty());
}

TEST(Izhikevich, FiresWithSustainedInput) {
  Izhikevich n;
  const auto spikes = run(n, 10.0, 1.0, kDt);
  EXPECT_GT(spikes.size(), 3u);
}

TEST(Izhikevich, RateGrowsWithDrive) {
  Izhikevich n;
  const auto lo = run(n, 6.0, 2.0, kDt);
  const auto hi = run(n, 14.0, 2.0, kDt);
  EXPECT_GT(hi.size(), lo.size());
}

TEST(Izhikevich, FastSpikingOutpacesRegularSpiking) {
  Izhikevich rs(kRegularSpiking);
  Izhikevich fs(kFastSpiking);
  const auto rs_spikes = run(rs, 10.0, 2.0, kDt);
  const auto fs_spikes = run(fs, 10.0, 2.0, kDt);
  EXPECT_GT(fs_spikes.size(), rs_spikes.size());
}

TEST(Izhikevich, ChatteringProducesBursts) {
  Izhikevich ch(kChattering);
  const auto spikes = run(ch, 10.0, 2.0, kDt);
  ASSERT_GT(spikes.size(), 4u);
  // Bursting: the ISI distribution is strongly bimodal -> high CV.
  EXPECT_GT(isi_cv(spikes), 0.5);
}

TEST(Izhikevich, RegularSpikingIsRegular) {
  Izhikevich rs(kRegularSpiking);
  auto spikes = run(rs, 10.0, 3.0, kDt);
  ASSERT_GT(spikes.size(), 5u);
  // Drop the initial adaptation transient.
  spikes.erase(spikes.begin(), spikes.begin() + 3);
  EXPECT_LT(isi_cv(spikes), 0.2);
}

TEST(Izhikevich, VoltageResetAfterSpike) {
  Izhikevich n;
  bool fired = false;
  for (double t = 0.0; t < 1.0 && !fired; t += kDt) {
    fired = n.step(10.0, kDt);
  }
  ASSERT_TRUE(fired);
  EXPECT_NEAR(n.v_mv(), -65.0, 1e-9);  // c parameter
}

TEST(Izhikevich, DeterministicRuns) {
  Izhikevich a, b;
  EXPECT_EQ(run(a, 10.0, 1.0, kDt), run(b, 10.0, 1.0, kDt));
}

TEST(Izhikevich, RejectsBadDt) {
  Izhikevich n;
  EXPECT_THROW(n.step(0.0, -1.0), ConfigError);
}

}  // namespace
}  // namespace biosense::neuro
