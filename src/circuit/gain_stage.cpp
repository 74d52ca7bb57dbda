#include "circuit/gain_stage.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::circuit {

GainStage::GainStage(GainStageParams params, Rng rng) : params_(params) {
  require(params.nominal_gain > 0.0, "GainStage: gain must be positive");
  require(params.bandwidth_hz > 0.0, "GainStage: bandwidth must be positive");
  actual_gain_ =
      params.nominal_gain * std::max(0.1, 1.0 + rng.normal(0.0, params.gain_sigma));
  offset_ = rng.normal(0.0, params.offset_sigma);
}

double GainStage::step(double i_in, double dt) {
  // One single-pole update; tau > 0 always (bandwidth required positive).
  return step_with(i_in, decay(dt));
}

double GainStage::decay(double dt) const {
  const double tau = 1.0 / (2.0 * constants::kPi * params_.bandwidth_hz);
  return std::exp(-dt / tau);
}

void GainStage::calibrate(double i_ref, double residual) {
  require(i_ref > 0.0, "GainStage::calibrate: reference must be positive");
  // Two-point measurement at DC: out(0) and out(i_ref) give offset and gain.
  const double out0 = actual_gain_ * (0.0 + offset_);
  const double out1 = actual_gain_ * (i_ref + offset_);
  const double measured_gain = (out1 - out0) / i_ref;
  // Correction factors quantized to `residual` relative accuracy, emulating
  // the finite resolution of the on-chip correction.
  const double ideal_corr = params_.nominal_gain / measured_gain;
  corr_gain_ = ideal_corr * (1.0 + residual);
  corr_offset_ = -out0 * corr_gain_ * (1.0 - residual);
  calibrated_ = true;
}

GainChain::GainChain(const std::vector<StageSpec>& specs, Rng rng,
                     double gain_sigma, double offset_sigma) {
  for (const auto& s : specs) {
    GainStageParams p;
    p.nominal_gain = s.gain;
    p.bandwidth_hz = s.bandwidth_hz;
    p.gain_sigma = gain_sigma;
    p.offset_sigma = offset_sigma * s.offset_scale;
    stages.emplace_back(p, rng.fork());
  }
}

GainChain::GainChain(Rng rng, double gain_sigma, double offset_sigma)
    : GainChain(
          // Paper values: x100 and x7 on chip (readout amplifier
          // BW = 4 MHz), x4 and x2 off chip (output driver BW = 32 MHz).
          {{100.0, 4e6, 1.0},
           {7.0, 4e6, 100.0},
           {4.0, 32e6, 700.0},
           {2.0, 32e6, 2800.0}},
          rng, gain_sigma, offset_sigma) {}

GainChain GainChain::on_chip(Rng rng, double gain_sigma, double offset_sigma) {
  return GainChain({{100.0, 4e6, 1.0}, {7.0, 4e6, 100.0}}, rng, gain_sigma,
                   offset_sigma);
}

GainChain GainChain::off_chip(Rng rng, double gain_sigma, double offset_sigma) {
  return GainChain({{4.0, 32e6, 1.0}, {2.0, 32e6, 4.0}}, rng, gain_sigma,
                   offset_sigma);
}

double GainChain::step(double i_in, double dt) {
  double x = i_in;
  for (auto& s : stages) x = s.step(x, dt);
  return x;
}

void GainChain::decays(double dt, double* out) const {
  for (std::size_t k = 0; k < stages.size(); ++k) out[k] = stages[k].decay(dt);
}

void GainChain::calibrate(double i_ref, double residual) {
  double ref = i_ref;
  for (auto& s : stages) {
    s.calibrate(ref, residual);
    ref *= s.nominal_gain();
  }
}

double GainChain::total_nominal_gain() const {
  double g = 1.0;
  for (const auto& s : stages) g *= s.nominal_gain();
  return g;
}

}  // namespace biosense::circuit
