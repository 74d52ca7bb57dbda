#include "circuit/gain_stage.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::circuit {

namespace {

/// exp(-dt/tau) for a single pole at `bandwidth_hz`.
double single_pole_decay(double bandwidth_hz, double dt) {
  const double tau = 1.0 / (2.0 * constants::kPi * bandwidth_hz);
  return std::exp(-dt / tau);
}

/// Two-point measurement at DC of a stage with the given as-fabricated gain
/// and offset: out(0) and out(i_ref) give offset and gain. The correction
/// factors are quantized to `residual` relative accuracy, emulating the
/// finite resolution of the on-chip correction.
void corrections(double actual_gain, double offset, double nominal_gain,
                 double i_ref, double residual, double& corr_gain,
                 double& corr_offset) {
  require(i_ref > 0.0, "GainStage::calibrate: reference must be positive");
  const double out0 = actual_gain * (0.0 + offset);
  const double out1 = actual_gain * (i_ref + offset);
  const double measured_gain = (out1 - out0) / i_ref;
  const double ideal_corr = nominal_gain / measured_gain;
  corr_gain = ideal_corr * (1.0 + residual);
  corr_offset = -out0 * corr_gain * (1.0 - residual);
}

}  // namespace

GainStage::GainStage(GainStageParams params, Rng rng) : params_(params) {
  require(params.nominal_gain > 0.0, "GainStage: gain must be positive");
  require(params.bandwidth_hz > 0.0, "GainStage: bandwidth must be positive");
  actual_gain_ =
      params.nominal_gain * std::max(0.1, 1.0 + rng.normal(0.0, params.gain_sigma));
  offset_ = rng.normal(0.0, params.offset_sigma);
}

double GainStage::decay(double dt) const {
  return single_pole_decay(params_.bandwidth_hz, dt);
}

void GainStage::calibrate(double i_ref, double residual) {
  corrections(actual_gain_, offset_, params_.nominal_gain, i_ref, residual,
              corr_gain_, corr_offset_);
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

void GainBank::reset(const GainChain& shape, std::size_t lanes) {
  stages.assign(shape.stages.size(), Stage{});
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const GainStage& from = shape.stages[k];
    stages[k] = {from.params_.nominal_gain, from.params_.bandwidth_hz,
                 from.limit()};
  }
  lanes_ = lanes;
  planes_.assign(stages.size() * kFields * lanes, 0.0);
  masks_.assign(stages.size() * lanes, 0);
}

void GainBank::set(std::size_t i, const GainChain& c) {
  require(c.stages.size() == stages.size(),
          "GainBank: chain shape differs from the bank's");
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const GainStage& from = c.stages[k];
    plane(k, kGain)[i] = from.actual_gain_;
    plane(k, kOffset)[i] = from.offset_;
    plane(k, kCorrGain)[i] = from.corr_gain_;
    plane(k, kCorrOffset)[i] = from.corr_offset_;
    plane(k, kIOut)[i] = from.i_out_;
    masks_[k * lanes_ + i] = from.calibrated_ ? ~std::uint64_t{0} : 0;
  }
}

void GainBank::calibrate(double i_ref, double residual) {
  double ref = i_ref;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const double* gain = plane(k, kGain);
    const double* offset = plane(k, kOffset);
    double* corr_gain = plane(k, kCorrGain);
    double* corr_offset = plane(k, kCorrOffset);
    for (std::size_t i = 0; i < lanes_; ++i) {
      corrections(gain[i], offset[i], stages[k].nominal_gain, ref, residual,
                  corr_gain[i], corr_offset[i]);
      masks_[k * lanes_ + i] = ~std::uint64_t{0};
    }
    ref *= stages[k].nominal_gain;
  }
}

void GainBank::decays(double dt, double* out) const {
  for (std::size_t k = 0; k < stages.size(); ++k) {
    out[k] = single_pole_decay(stages[k].bandwidth_hz, dt);
  }
}

}  // namespace biosense::circuit
