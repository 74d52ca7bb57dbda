// Calibrated current-gain stage with a single-pole bandwidth limit.
//
// Fig. 6 of the paper amplifies the pixel difference current through a
// cascade of current mirrors: x100 and x7 on chip (readout amplifier,
// BW = 4 MHz), x4 and x2 off chip (output driver, BW = 32 MHz). Mirror
// ratios suffer from device mismatch, so "the subsequent current gain
// stages also undergo a calibration procedure before used for signal
// amplification" — modeled here as measuring the stage's actual gain and
// offset with a known reference input and storing digital correction
// factors.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "noise/mismatch.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::circuit {

struct GainStageParams {
  double nominal_gain = 100.0;
  double bandwidth_hz = 4e6;
  /// Relative 1-sigma spread of the as-fabricated gain (mirror mismatch).
  double gain_sigma = 0.03;
  /// 1-sigma input-referred offset current, A.
  double offset_sigma = 50e-9;
};

/// One single-pole stage update, the arithmetic GainStage and GainBank's
/// lanes share: the settled target gain * (x + offset), corrected to
/// target * corr_gain + corr_offset where `cal_mask` is all ones, then
/// i_out <- i_out * a + target * (1 - a); returns the new i_out. The
/// calibration is a bit-mask select (the noise/counter.hpp idiom), so a
/// loop over lanes has no branch to vectorize around.
inline double stage_update(double x, double gain, double offset,
                           double corr_gain, double corr_offset,
                           std::uint64_t cal_mask, double a, double& i_out) {
  const double raw = gain * (x + offset);
  const double corrected = raw * corr_gain + corr_offset;
  const double target =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(corrected) &
                             cal_mask) |
                            (std::bit_cast<std::uint64_t>(raw) & ~cal_mask));
  i_out = i_out * a + target * (1.0 - a);
  return i_out;
}

class GainBank;

class GainStage {
 public:
  GainStage(GainStageParams params, Rng rng);

  /// Advances the stage by dt with input current `i_in`; returns the output
  /// current after the single-pole response (and calibration corrections if
  /// calibrated).
  double step(double i_in, double dt) {
    return stage_update(i_in, actual_gain_, offset_, corr_gain_, corr_offset_,
                        calibrated_ ? ~std::uint64_t{0} : 0, decay(dt),
                        i_out_);
  }

  /// Single-pole decay factor exp(-dt/tau) for this stage's bandwidth.
  double decay(double dt) const;

  /// Measures the stage with two reference inputs and stores gain/offset
  /// corrections, emulating the chip's calibration phase. After this,
  /// steady-state gain error and offset are cancelled to `residual`
  /// (relative), modeling the finite resolution of the correction DAC.
  void calibrate(double i_ref, double residual = 1e-3);

  /// True (post-fab) gain including mismatch — what calibration estimates.
  double actual_gain() const { return actual_gain_; }
  double nominal_gain() const { return params_.nominal_gain; }
  void reset_state() { i_out_ = 0.0; }

  /// Calibration corrections + the single-pole filter memory (`i_out_` is
  /// per-sample state — dropping it would bend the first resumed sample).
  void save_state(snapshot::StateWriter& w) const {
    w.f64(corr_gain_);
    w.f64(corr_offset_);
    w.b(calibrated_);
    w.f64(i_out_);
  }
  void load_state(snapshot::StateReader& r) {
    corr_gain_ = r.f64();
    corr_offset_ = r.f64();
    calibrated_ = r.b();
    i_out_ = r.f64();
  }

 private:
  friend class GainBank;

  GainStageParams params_;  // analyze:transient - frozen config
  // analyze:transient - as-fabricated values, re-derived at construction
  double actual_gain_;
  double offset_;  // analyze:transient - as-fabricated, re-derived at construction
  double corr_gain_ = 1.0;    // digital gain correction
  double corr_offset_ = 0.0;  // output-referred offset correction, A
  bool calibrated_ = false;
  double i_out_ = 0.0;
};

/// Specification of one stage in a chain.
struct StageSpec {
  double gain = 1.0;
  double bandwidth_hz = 4e6;
  /// Multiplier applied to the chain's base offset sigma for this stage
  /// (offsets referred to each stage's input scale with preceding gain).
  double offset_scale = 1.0;
};

/// Convenience: builds the paper's four-stage chain (x100, x7 on chip at
/// 4 MHz; x4, x2 off chip at 32 MHz) with mismatch drawn from `rng`.
struct GainChain {
  explicit GainChain(Rng rng, double gain_sigma = 0.03,
                     double offset_sigma = 20e-9);

  /// Builds a chain from an explicit stage list.
  GainChain(const std::vector<StageSpec>& specs, Rng rng, double gain_sigma,
            double offset_sigma);

  /// The paper's on-chip row stages: x100, x7, both at the 4 MHz readout
  /// amplifier bandwidth.
  static GainChain on_chip(Rng rng, double gain_sigma = 0.03,
                           double offset_sigma = 20e-9);
  /// The paper's off-chip channel stages: x4, x2 behind the 32 MHz driver.
  static GainChain off_chip(Rng rng, double gain_sigma = 0.03,
                            double offset_sigma = 20e-9);

  /// Steps all four stages in cascade.
  double step(double i_in, double dt);

  /// Calibrates each stage with a reference current scaled to its input
  /// range.
  void calibrate(double i_ref, double residual = 1e-3);

  double total_nominal_gain() const;  // = 100*7*4*2 = 5600

  void save_state(snapshot::StateWriter& w) const {
    w.u32(static_cast<std::uint32_t>(stages.size()));
    for (const GainStage& s : stages) s.save_state(w);
  }
  void load_state(snapshot::StateReader& r) {
    if (r.u32() != stages.size()) {
      r.fail();
      return;
    }
    for (GainStage& s : stages) s.load_state(r);
  }

  std::vector<GainStage> stages;
};

/// Structure-of-arrays form of many same-shape gain chains (DESIGN.md
/// §16): stage k of every chain is one set of planes and lane i is chain
/// i, so a loop over lanes steps many chains at once through
/// stage_update. The die constants are drawn by GainChain construction and
/// copied in by set(), and a lane saves the bytes GainChain::save_state
/// writes. The planes are runs of one buffer and the calibration masks runs
/// of a second.
class GainBank {
 public:
  /// The constants stage k applies to every lane.
  struct Stage {
    double nominal_gain = 1.0;
    double bandwidth_hz = 1.0;
  };

  /// Stage k of the lanes from `first` on, as a lane loop steps them: the
  /// bank's constants and corrections, with the pole memories at `i_out`
  /// (the caller's copy) and the decay factor `a`.
  struct StageLanes {
    const double* gain;
    const double* offset;
    const double* corr_gain;
    const double* corr_offset;
    const std::uint64_t* cal_mask;
    double* i_out;
    double a;

    double step(std::size_t l, double x) const {
      return stage_update(x, gain[l], offset[l], corr_gain[l], corr_offset[l],
                          cal_mask[l], a, i_out[l]);
    }
  };

  /// Sizes the bank for `lanes` chains with `shape`'s stages (nominal
  /// gains, bandwidths); set() then fills every lane.
  void reset(const GainChain& shape, std::size_t lanes);

  /// Copies chain `c` — die constants, corrections, pole memories — into
  /// lane i.
  void set(std::size_t i, const GainChain& c);

  /// GainChain::calibrate on every lane.
  void calibrate(double i_ref, double residual = 1e-3);

  /// Fills out[k] with stage k's single-pole decay factor for a step of
  /// dt; `out` must hold stages.size() entries.
  void decays(double dt, double* out) const;

  StageLanes lanes(std::size_t k, std::size_t first, double* i_out,
                   double a) const {
    return {plane(k, kGain) + first,     plane(k, kOffset) + first,
            plane(k, kCorrGain) + first, plane(k, kCorrOffset) + first,
            &masks_[k * lanes_ + first], i_out, a};
  }

  /// Stage k's single-pole memories, one per lane.
  double* i_out(std::size_t k) { return plane(k, kIOut); }

  /// Lane i in GainChain::save_state's layout.
  void save_state(snapshot::StateWriter& w, std::size_t i) const {
    w.u32(static_cast<std::uint32_t>(stages.size()));
    for (std::size_t k = 0; k < stages.size(); ++k) {
      const double* lane = planes_.data() + k * kFields * lanes_ + i;
      w.f64(lane[kCorrGain * lanes_]);
      w.f64(lane[kCorrOffset * lanes_]);
      w.b(masks_[k * lanes_ + i] != 0);
      w.f64(lane[kIOut * lanes_]);
    }
  }
  void load_state(snapshot::StateReader& r, std::size_t i) {
    if (r.u32() != stages.size()) {
      r.fail();
      return;
    }
    for (std::size_t k = 0; k < stages.size(); ++k) {
      double* lane = planes_.data() + k * kFields * lanes_ + i;
      lane[kCorrGain * lanes_] = r.f64();
      lane[kCorrOffset * lanes_] = r.f64();
      masks_[k * lanes_ + i] = r.b() ? ~std::uint64_t{0} : 0;
      lane[kIOut * lanes_] = r.f64();
    }
  }

  std::vector<Stage> stages;

 private:
  /// A stage's planes in buffer order: as-fabricated gain and offset (A),
  /// the two calibration corrections, the single-pole memory.
  enum Field : std::size_t {
    kGain, kOffset, kCorrGain, kCorrOffset, kIOut, kFields
  };
  double* plane(std::size_t k, Field f) {
    return planes_.data() + (k * kFields + f) * lanes_;
  }
  const double* plane(std::size_t k, Field f) const {
    return planes_.data() + (k * kFields + f) * lanes_;
  }

  std::size_t lanes_ = 0;
  Plane<double> planes_;        // [stage][Field][lane]
  Plane<std::uint64_t> masks_;  // [stage][lane]: all ones once calibrated
};

}  // namespace biosense::circuit
