#include "neuro/spike_train.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace biosense::neuro {

std::vector<double> poisson_spike_train(double rate_hz, double duration,
                                        Rng& rng, double refractory) {
  require(rate_hz >= 0.0 && duration >= 0.0,
          "poisson_spike_train: invalid arguments");
  std::vector<double> spikes;
  if (rate_hz <= 0.0) return spikes;
  double t = 0.0;
  while (true) {
    t += rng.exponential(rate_hz) + refractory;
    if (t >= duration) break;
    spikes.push_back(t);
  }
  return spikes;
}

std::vector<double> regular_spike_train(double rate_hz, double duration,
                                        Rng& rng, double jitter_sigma) {
  require(rate_hz > 0.0, "regular_spike_train: rate must be positive");
  std::vector<double> spikes;
  const double period = 1.0 / rate_hz;
  for (double t = period; t < duration; t += period) {
    const double jt = t + rng.normal(0.0, jitter_sigma);
    if (jt >= 0.0 && jt < duration) spikes.push_back(jt);
  }
  std::sort(spikes.begin(), spikes.end());
  return spikes;
}

std::vector<double> burst_spike_train(double burst_rate_hz,
                                      int spikes_per_burst,
                                      double intra_burst_interval,
                                      double duration, Rng& rng) {
  require(burst_rate_hz > 0.0 && spikes_per_burst >= 1,
          "burst_spike_train: invalid arguments");
  std::vector<double> spikes;
  double t = rng.exponential(burst_rate_hz);
  while (t < duration) {
    for (int k = 0; k < spikes_per_burst; ++k) {
      const double ts = t + k * intra_burst_interval;
      if (ts < duration) spikes.push_back(ts);
    }
    t += rng.exponential(burst_rate_hz);
  }
  std::sort(spikes.begin(), spikes.end());
  return spikes;
}

double firing_rate(const std::vector<double>& spikes, double duration) {
  if (duration <= 0.0) return 0.0;
  return static_cast<double>(spikes.size()) / duration;
}

std::vector<double> isi(const std::vector<double>& spikes) {
  std::vector<double> out;
  if (spikes.size() < 2) return out;
  out.reserve(spikes.size() - 1);
  for (std::size_t i = 1; i < spikes.size(); ++i) {
    out.push_back(spikes[i] - spikes[i - 1]);
  }
  return out;
}

double isi_cv(const std::vector<double>& spikes) {
  const auto intervals = isi(spikes);
  if (intervals.size() < 2) return 0.0;
  const double m = mean(intervals);
  return m > 0.0 ? stddev(intervals) / m : 0.0;
}

void render_spike_waveform_into(const std::vector<double>& spikes,
                                const std::vector<double>& templ,
                                double templ_fs, double fs,
                                std::size_t n_samples,
                                std::vector<double>& out) {
  require(templ_fs > 0.0 && fs > 0.0, "render_spike_waveform: invalid rates");
  out.assign(n_samples, 0.0);
  if (templ.empty()) return;
  const double templ_duration = static_cast<double>(templ.size()) / templ_fs;
  for (double ts : spikes) {
    const auto first = static_cast<std::size_t>(
        std::max(0.0, std::ceil(ts * fs)));
    for (std::size_t i = first; i < n_samples; ++i) {
      const double rel = static_cast<double>(i) / fs - ts;
      if (rel >= templ_duration) break;
      // Linear interpolation into the template.
      const double idx = rel * templ_fs;
      const auto lo = static_cast<std::size_t>(idx);
      const auto hi = std::min(lo + 1, templ.size() - 1);
      const double frac = idx - static_cast<double>(lo);
      out[i] += templ[lo] * (1.0 - frac) + templ[hi] * frac;
    }
  }
}

}  // namespace biosense::neuro
