#include "neuro/culture.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::neuro {
namespace {

CultureConfig small_culture() {
  CultureConfig c;
  c.area_size = 0.25e-3;
  c.n_neurons = 10;
  c.duration = 0.5;
  return c;
}

TEST(Culture, PlacementInsideArea) {
  NeuronCulture culture(small_culture(), Rng(1));
  ASSERT_EQ(culture.neurons().size(), 10u);
  for (const auto& n : culture.neurons()) {
    EXPECT_GE(n.x, 0.0);
    EXPECT_LT(n.x, 0.25e-3);
    EXPECT_GE(n.y, 0.0);
    EXPECT_LT(n.y, 0.25e-3);
  }
}

TEST(Culture, DiametersInPaperRange) {
  // Paper: "typical neuron diameters are 10 um ... 100 um".
  CultureConfig cfg = small_culture();
  cfg.n_neurons = 100;
  NeuronCulture culture(cfg, Rng(2));
  for (const auto& n : culture.neurons()) {
    EXPECT_GE(n.diameter, 10e-6 * 0.999);
    EXPECT_LE(n.diameter, 100e-6 * 1.001);
  }
}

TEST(Culture, AmplitudesInPaperRange) {
  // Paper: "maximum signal amplitudes are between 100 uV and 5 mV".
  CultureConfig cfg = small_culture();
  cfg.n_neurons = 60;
  NeuronCulture culture(cfg, Rng(3));
  int in_range = 0;
  for (const auto& n : culture.neurons()) {
    EXPECT_GT(n.peak_amplitude, 10e-6);
    EXPECT_LE(n.peak_amplitude, 5e-3 * 1.001);  // seal-saturation ceiling
    if (n.peak_amplitude >= 100e-6 && n.peak_amplitude <= 5e-3) ++in_range;
  }
  // The bulk of the population lands inside the quoted window.
  EXPECT_GT(in_range, 40);
}

TEST(Culture, FootprintFullInsideContactDisk) {
  NeuronCulture culture(small_culture(), Rng(4));
  const auto& n = culture.neurons().front();
  EXPECT_DOUBLE_EQ(culture.footprint_weight(n, n.x, n.y), 1.0);
  EXPECT_DOUBLE_EQ(
      culture.footprint_weight(n, n.x + 0.4 * n.diameter / 2.0, n.y), 1.0);
}

TEST(Culture, FootprintDecaysOutside) {
  NeuronCulture culture(small_culture(), Rng(5));
  const auto& n = culture.neurons().front();
  const double w_near =
      culture.footprint_weight(n, n.x + n.diameter / 2.0 + 1e-6, n.y);
  const double w_far =
      culture.footprint_weight(n, n.x + n.diameter / 2.0 + 10e-6, n.y);
  EXPECT_LT(w_near, 1.0);
  EXPECT_LT(w_far, w_near);
  EXPECT_LT(w_far, 0.05);
}

TEST(Culture, SpikeTimesWithinDuration) {
  NeuronCulture culture(small_culture(), Rng(9));
  for (const auto& n : culture.neurons()) {
    for (double t : n.spike_times) {
      EXPECT_GE(t, 0.0);
      EXPECT_LT(t, small_culture().duration);
    }
  }
}

TEST(Culture, DeterministicPerSeed) {
  NeuronCulture a(small_culture(), Rng(10));
  NeuronCulture b(small_culture(), Rng(10));
  ASSERT_EQ(a.neurons().size(), b.neurons().size());
  for (std::size_t i = 0; i < a.neurons().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.neurons()[i].x, b.neurons()[i].x);
    EXPECT_DOUBLE_EQ(a.neurons()[i].diameter, b.neurons()[i].diameter);
    EXPECT_EQ(a.neurons()[i].spike_times, b.neurons()[i].spike_times);
  }
}

TEST(Culture, RejectsInvalidConfig) {
  CultureConfig cfg = small_culture();
  cfg.area_size = 0.0;
  EXPECT_THROW(NeuronCulture(cfg, Rng(1)), ConfigError);
  cfg = small_culture();
  cfg.diameter_min = 0.0;
  EXPECT_THROW(NeuronCulture(cfg, Rng(1)), ConfigError);
}

}  // namespace
}  // namespace biosense::neuro
