#include "neuro/propagation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "dsp/network.hpp"

namespace biosense::neuro {
namespace {

CultureConfig wave_culture() {
  CultureConfig c;
  c.area_size = 1e-3;
  c.n_neurons = 30;
  c.duration = 2.0;
  return c;
}

WaveConfig slow_wave() {
  WaveConfig w;
  w.velocity = 30e-3;
  w.jitter = 0.2e-3;
  w.duration = 2.0;
  return w;
}

TEST(Propagation, ArrivalTimeTracksDistance) {
  NeuronCulture culture(wave_culture(), Rng(1));
  Rng rng(2);
  WaveConfig w = slow_wave();
  w.jitter = 0.0;
  w.spikes_per_wave = 1;
  apply_wave_activity(culture, w, rng);

  // First spike of each neuron = first wave launch + distance / velocity.
  const double launch = 0.1 / w.wave_rate;
  for (const auto& n : culture.neurons()) {
    ASSERT_FALSE(n.spike_times.empty());
    const double dist = std::hypot(n.x - w.origin_x, n.y - w.origin_y);
    EXPECT_NEAR(n.spike_times.front(), launch + dist / w.velocity, 1e-9);
  }
}

TEST(Propagation, SpikesSortedAndBounded) {
  NeuronCulture culture(wave_culture(), Rng(3));
  Rng rng(4);
  apply_wave_activity(culture, slow_wave(), rng);
  for (const auto& n : culture.neurons()) {
    EXPECT_TRUE(std::is_sorted(n.spike_times.begin(), n.spike_times.end()));
    for (double t : n.spike_times) {
      EXPECT_GE(t, 0.0);
      EXPECT_LT(t, 2.0);
    }
  }
}

TEST(Propagation, PlaneFitRecoversSpeedAndDirection) {
  // Synthetic planar wavefront: t = t0 + (x cos a + y sin a) / v.
  const double v_true = 25e-3;
  const double angle = 0.4;
  std::vector<double> xs, ys, ts;
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.uniform(0.0, 1e-3);
    const double y = rng.uniform(0.0, 1e-3);
    xs.push_back(x);
    ys.push_back(y);
    ts.push_back(0.05 + (x * std::cos(angle) + y * std::sin(angle)) / v_true +
                 rng.normal(0.0, 0.2e-3));
  }
  const auto fit = dsp::fit_wavefront(xs, ys, ts);
  ASSERT_GT(fit.speed, 0.0);
  EXPECT_NEAR(fit.speed, v_true, 0.1 * v_true);
  EXPECT_NEAR(fit.direction_x, std::cos(angle), 0.05);
  EXPECT_NEAR(fit.direction_y, std::sin(angle), 0.05);
  EXPECT_LT(fit.rms_residual, 1e-3);
}

TEST(Propagation, PlaneFitRejectsDegenerateGeometry) {
  // Collinear sites cannot determine a 2-D slowness vector.
  std::vector<double> xs{0.0, 1e-4, 2e-4};
  std::vector<double> ys{0.0, 0.0, 0.0};
  std::vector<double> ts{0.0, 1e-3, 2e-3};
  const auto fit = dsp::fit_wavefront(xs, ys, ts);
  // Either flagged degenerate or fit within the line; must not crash.
  (void)fit;
  EXPECT_LT(dsp::fit_wavefront({}, {}, {}).speed, 0.0);
  EXPECT_LT(dsp::fit_wavefront({1.0}, {1.0}, {1.0}).speed, 0.0);
}

TEST(Propagation, RejectsInvalidConfig) {
  NeuronCulture culture(wave_culture(), Rng(9));
  Rng rng(10);
  WaveConfig w = slow_wave();
  w.velocity = 0.0;
  EXPECT_THROW(apply_wave_activity(culture, w, rng), ConfigError);
}

}  // namespace
}  // namespace biosense::neuro
