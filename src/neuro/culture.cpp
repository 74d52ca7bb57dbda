#include "neuro/culture.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::neuro {

NeuronCulture::NeuronCulture(CultureConfig config, Rng rng)
    : config_(config) {
  require(config.n_neurons >= 0, "NeuronCulture: n_neurons must be >= 0");
  require(config.area_size > 0.0, "NeuronCulture: area must be positive");
  require(config.diameter_max >= config.diameter_min &&
              config.diameter_min > 0.0,
          "NeuronCulture: invalid diameter range");

  neurons_.reserve(static_cast<std::size_t>(config.n_neurons));
  for (int i = 0; i < config.n_neurons; ++i) {
    PlacedNeuron n;
    n.x = rng.uniform(0.0, config.area_size);
    n.y = rng.uniform(0.0, config.area_size);
    n.diameter = rng.log_uniform(config.diameter_min, config.diameter_max);
    const int pat = static_cast<int>(rng.uniform_int(0, 2));
    n.pattern = static_cast<FiringPattern>(pat);

    const double rate =
        std::max(0.5, rng.normal(config.mean_rate_hz, config.mean_rate_hz / 3.0));
    switch (n.pattern) {
      case FiringPattern::kRegular:
        n.spike_times =
            regular_spike_train(rate, config.duration, rng, 2e-3);
        break;
      case FiringPattern::kPoisson:
        n.spike_times = poisson_spike_train(rate, config.duration, rng);
        break;
      case FiringPattern::kBursting:
        n.spike_times = burst_spike_train(rate / 4.0, 4, 8e-3,
                                          config.duration, rng);
        break;
    }

    JunctionParams jp = config.junction;
    jp.neuron_diameter = n.diameter;
    // Large cells attach less conformally: their effective tight-contact
    // fraction shrinks roughly inversely with diameter, which keeps the
    // amplitude distribution inside the physiological window the paper
    // quotes (100 uV .. 5 mV) instead of growing with d^2.
    jp.contact_fraction *= std::min(1.0, 30e-6 / n.diameter);
    // Biological spread: seal quality varies cell to cell.
    jp.contact_fraction =
        std::clamp(jp.contact_fraction * rng.log_uniform(0.5, 2.0), 0.05, 1.0);
    jp.mu_na = std::max(1.0, jp.mu_na * rng.uniform(0.7, 1.3));
    PointContactJunction junction(jp);
    n.templ = junction.spike_template(1.0 / config.template_fs);
    for (double v : n.templ) {
      n.peak_amplitude = std::max(n.peak_amplitude, std::abs(v));
    }
    // Seal saturation: cleft potentials cannot exceed a few mV before the
    // seal leaks (and the paper quotes 5 mV as the observed maximum).
    constexpr double kAmplitudeCeiling = 5e-3;
    if (n.peak_amplitude > kAmplitudeCeiling) {
      const double scale = kAmplitudeCeiling / n.peak_amplitude;
      for (double& v : n.templ) v *= scale;
      n.peak_amplitude = kAmplitudeCeiling;
    }
    neurons_.push_back(std::move(n));
  }
}

namespace {
// The cleft potential decays within roughly one cleft length constant
// (~ a few micrometers) outside the contact area.
constexpr double kRolloff = 3e-6;
}  // namespace

double NeuronCulture::footprint_weight(const PlacedNeuron& n, double x,
                                       double y) const {
  const double r = std::hypot(x - n.x, y - n.y);
  const double contact_r = 0.5 * n.diameter;
  if (r <= contact_r) return 1.0;
  const double d = r - contact_r;
  return std::exp(-d / kRolloff);
}

double NeuronCulture::footprint_reach(const PlacedNeuron& n) const {
  return 0.5 * n.diameter + kRolloff * std::log(1.0 / kCoverWeight);
}

void NeuronCulture::assign_spike_trains(
    const std::vector<std::vector<double>>& trains) {
  require(!trains.empty(), "NeuronCulture: need at least one spike train");
  for (std::size_t i = 0; i < neurons_.size(); ++i) {
    neurons_[i].spike_times = trains[i % trains.size()];
  }
}

}  // namespace biosense::neuro
