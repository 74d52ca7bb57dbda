// Spike train generation and raster utilities.
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace biosense::neuro {

/// Homogeneous Poisson spike train with an absolute refractory period.
std::vector<double> poisson_spike_train(double rate_hz, double duration,
                                        Rng& rng,
                                        double refractory = 2e-3);

/// Regular spike train with optional timing jitter.
std::vector<double> regular_spike_train(double rate_hz, double duration,
                                        Rng& rng, double jitter_sigma = 0.0);

/// Burst train: bursts at `burst_rate_hz`, each with `spikes_per_burst`
/// spikes at `intra_burst_interval`.
std::vector<double> burst_spike_train(double burst_rate_hz,
                                      int spikes_per_burst,
                                      double intra_burst_interval,
                                      double duration, Rng& rng);

/// Mean firing rate of a spike train over `duration`.
double firing_rate(const std::vector<double>& spikes, double duration);

/// Inter-spike intervals.
std::vector<double> isi(const std::vector<double>& spikes);

/// Coefficient of variation of the ISI distribution (1 for Poisson,
/// ~0 for regular firing).
double isi_cv(const std::vector<double>& spikes);

/// Renders spike times into a sampled waveform by placing `templ` at each
/// spike (additive), sampling at `fs`. Writes `n_samples` values into `out`
/// (resized, capacity retained), so a loop can reuse one buffer.
void render_spike_waveform_into(const std::vector<double>& spikes,
                                const std::vector<double>& templ,
                                double templ_fs, double fs,
                                std::size_t n_samples,
                                std::vector<double>& out);

}  // namespace biosense::neuro
