// Simulated neural culture on the sensor surface.
//
// Replaces the paper's wet experiment (neurons or brain slices adhering to
// the 1 mm x 1 mm sensor field) with a synthetic culture: neurons with
// diameters in the paper's quoted 10..100 um range are placed over the
// array, each with its own junction geometry, spike statistics and
// extracellular spike template (synthesized from the Hodgkin-Huxley +
// point-contact models). The culture can then be sampled at any (x, y) to
// produce the electrode-referred voltage waveform a pixel at that location
// records — the input to the neurochip simulation.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "neuro/junction.hpp"

namespace biosense::neuro {

enum class FiringPattern { kRegular, kPoisson, kBursting };

struct CultureConfig {
  double area_size = 1e-3;        // m, square side (paper: 1 mm x 1 mm)
  int n_neurons = 30;
  double diameter_min = 10e-6;    // m
  double diameter_max = 100e-6;   // m
  double mean_rate_hz = 8.0;      // typical culture firing rate
  double duration = 1.0;          // s of activity to pre-generate
  JunctionParams junction{};      // base junction parameters
  double template_fs = 100e3;     // template sampling rate, Hz
};

struct PlacedNeuron {
  double x = 0.0;                 // m
  double y = 0.0;                 // m
  double diameter = 20e-6;        // m
  FiringPattern pattern = FiringPattern::kPoisson;
  std::vector<double> spike_times;
  std::vector<double> templ;      // electrode-voltage spike template, V
  double peak_amplitude = 0.0;    // max |templ|, V
};

class NeuronCulture {
 public:
  NeuronCulture(CultureConfig config, Rng rng);

  const std::vector<PlacedNeuron>& neurons() const { return neurons_; }
  const CultureConfig& config() const { return config_; }

  /// A neuron's footprint covers a point where its weight exceeds this.
  static constexpr double kCoverWeight = 0.01;

  /// Spatial weight of a neuron's junction signal at a point: 1 inside the
  /// contact disk, smooth roll-off over one cleft-coupling length outside.
  double footprint_weight(const PlacedNeuron& n, double x, double y) const;

  /// Distance from a neuron's centre beyond which its footprint weight is
  /// at most kCoverWeight: the contact radius plus the roll-off length
  /// times ln(1 / kCoverWeight), 13.8 um.
  double footprint_reach(const PlacedNeuron& n) const;

  /// Replaces the culture's intrinsic spike trains with externally
  /// generated ones (e.g. from an IzhikevichNetwork, for tissue-like
  /// correlated activity). Trains are assigned to neurons cyclically.
  void assign_spike_trains(const std::vector<std::vector<double>>& trains);

 private:
  CultureConfig config_;
  std::vector<PlacedNeuron> neurons_;
};

}  // namespace biosense::neuro
