#include "dsp/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::dsp {
namespace {

TEST(Network, PopulationRateCountsAllTrains) {
  std::vector<std::vector<double>> trains{{0.05, 0.15}, {0.05, 0.25}};
  const auto rate = population_rate(trains, 0.3, 0.1);
  ASSERT_EQ(rate.size(), 3u);
  // Bin 0: two spikes at 0.05 -> 2 / 0.1 s = 20 Hz summed.
  EXPECT_DOUBLE_EQ(rate[0], 20.0);
  EXPECT_DOUBLE_EQ(rate[1], 10.0);
  EXPECT_DOUBLE_EQ(rate[2], 10.0);
}

TEST(Network, PopulationRateIgnoresOutOfWindow) {
  std::vector<std::vector<double>> trains{{-0.1, 0.05, 5.0}};
  const auto rate = population_rate(trains, 0.2, 0.1);
  EXPECT_DOUBLE_EQ(rate[0], 10.0);
  EXPECT_DOUBLE_EQ(rate[1], 0.0);
}

TEST(Network, SynchronyIndexExtremes) {
  std::vector<double> a{0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(synchrony_index(a, a), 1.0);
  std::vector<double> far{1.1, 1.2, 1.3};
  EXPECT_DOUBLE_EQ(synchrony_index(a, far), 0.0);
  EXPECT_DOUBLE_EQ(synchrony_index({}, a), 0.0);
}

TEST(Network, SynchronyIndexPartialOverlap) {
  std::vector<double> a{0.1, 0.2, 0.3, 0.4};
  std::vector<double> b{0.1, 0.2};  // half of a's spikes matched
  const double s = synchrony_index(a, b, 1e-3);
  EXPECT_NEAR(s, 0.5 * (0.5 + 1.0), 1e-12);
}

TEST(Network, BurstingCultureShowsSynchronyStructure) {
  // Integration with the culture model: two neurons driven by the same
  // burst skeleton are more synchronous than independent ones.
  Rng rng(9);
  const auto skeleton = neuro::burst_spike_train(2.0, 5, 8e-3, 60.0, rng);
  auto jitter = [&](double sigma) {
    std::vector<double> t;
    for (double s : skeleton) t.push_back(s + rng.normal(0.0, sigma));
    std::sort(t.begin(), t.end());
    return t;
  };
  const auto a = jitter(0.5e-3);
  const auto b = jitter(0.5e-3);
  const auto indep = neuro::poisson_spike_train(
      neuro::firing_rate(skeleton, 60.0), 60.0, rng, 0.0);
  EXPECT_GT(synchrony_index(a, b, 3e-3), 5.0 * synchrony_index(a, indep, 3e-3));
}

TEST(Network, Validation) {
  EXPECT_THROW(population_rate({}, 0.0, 0.1), ConfigError);
}

}  // namespace
}  // namespace biosense::dsp
