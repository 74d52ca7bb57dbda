// Discrete-time noise source models.
//
// All sources follow the same convention: `sample(dt)` advances the source
// by one simulation step of length `dt` seconds and returns the
// instantaneous noise value for that step. White sources are modeled as
// band-limited to the Nyquist frequency of the sampling step (variance =
// one-sided PSD * 1/(2 dt)), which is the correct discrete-time equivalent
// for a sampled continuous system.
//
// `PixelBank` synthesizes the neural pixel's input-referred noise through
// the strided FlickerPlan helpers below. The object classes (WhiteNoise,
// FlickerNoise, CompositeNoise) are the seed's per-pixel model that the
// golden-frame test rebuilds pixels from, and they own the per-pixel
// snapshot layout PixelBank still emits.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::noise {

/// Discrete-step sigma of band-limited white noise with the given one-sided
/// PSD: variance = S * f_s / 2 = S / (2 dt). This is the per-frame-hoisted
/// form of WhiteNoise::sample's internal sigma — a bank of same-PSD sources
/// computes it once and draws rng.normal(0, sigma) per source.
inline double white_step_sigma(double psd_one_sided, double dt) {
  return std::sqrt(psd_one_sided / (2.0 * dt));
}

/// Frozen configuration of a FlickerNoise pole bank (identical pole
/// placement to the FlickerNoise constructor), shared by every source in a
/// plane-structured bank: per-pole OU time constants plus the common
/// stationary variance. The per-source evolving state (pole values + draw
/// stream) lives in the owner's planes.
struct FlickerPlan {
  std::vector<double> tau;     // OU time constant per pole
  double sigma2 = 0.0;         // stationary variance per pole
  double state_sigma = 0.0;    // sqrt(sigma2): initial-state draw sigma

  FlickerPlan() = default;
  FlickerPlan(double kf, double f_lo, double f_hi, int poles_per_decade = 2);

  std::size_t poles() const { return tau.size(); }
};

/// Per-dt step constants of a FlickerPlan: the decay a = exp(-dt/tau) and
/// innovation sigma sqrt(sigma2*(1-a^2)) of every pole, hoisted once per
/// frame instead of recomputed per pixel per pole.
struct FlickerStepConsts {
  std::vector<double> a;
  std::vector<double> s;

  void prepare(const FlickerPlan& plan, double dt);
  std::size_t poles() const { return a.size(); }
};

/// Draws the stationary initial state of each pole into a strided plane
/// (`states[k * stride]` for pole k), matching the FlickerNoise
/// constructor's draw order.
inline void flicker_init_strided(const FlickerPlan& plan, Rng& rng,
                                 double* states, std::size_t stride) {
  for (std::size_t k = 0; k < plan.poles(); ++k) {
    states[k * stride] = rng.normal(0.0, plan.state_sigma);
  }
}

/// One flicker sample from strided pole state: advances every pole by the
/// prepared step constants and returns the sum — bit-identical to
/// FlickerNoise::sample(dt) at the dt the constants were prepared for.
inline double flicker_sample_strided(const FlickerStepConsts& c, Rng& rng,
                                     double* states, std::size_t stride) {
  double sum = 0.0;
  for (std::size_t k = 0; k < c.a.size(); ++k) {
    double& st = states[k * stride];
    st = st * c.a[k] + rng.normal(0.0, c.s[k]);
    sum += st;
  }
  return sum;
}

/// Band-limited white noise with a given one-sided PSD (units^2/Hz).
class WhiteNoise {
 public:
  /// `psd_one_sided` in units^2/Hz.
  WhiteNoise(double psd_one_sided, Rng rng);

  double sample(double dt);
  double psd() const { return psd_; }

  /// Evolving state only (the PSD is frozen config): the draw stream.
  void save_state(snapshot::StateWriter& w) const { w.rng(rng_); }
  void load_state(snapshot::StateReader& r) { r.rng(rng_); }

 private:
  double psd_;  // analyze:transient - frozen config
  Rng rng_;
};

/// 1/f (flicker) noise synthesized as a sum of Ornstein-Uhlenbeck processes
/// with log-spaced corner frequencies. The resulting one-sided PSD
/// approximates S(f) = k_f / f over [f_lo, f_hi] to within a fraction of a
/// dB (validated by tests/noise against the Welch estimator).
class FlickerNoise {
 public:
  /// `kf` is the PSD coefficient: S(f) = kf / f in units^2/Hz.
  /// [f_lo, f_hi] is the frequency band over which the 1/f shape is
  /// synthesized; poles are placed `poles_per_decade` per decade.
  FlickerNoise(double kf, double f_lo, double f_hi, Rng rng,
               int poles_per_decade = 2);

  double sample(double dt);

  /// Analytic one-sided PSD of the synthesized process at frequency f;
  /// used by tests to compare against the 1/f target.
  double analytic_psd(double f) const;

  /// Draw stream + the OU pole states (tau/sigma2 are frozen config).
  void save_state(snapshot::StateWriter& w) const {
    w.rng(rng_);
    w.u32(static_cast<std::uint32_t>(poles_.size()));
    for (const Pole& p : poles_) w.f64(p.state);
  }
  void load_state(snapshot::StateReader& r) {
    r.rng(rng_);
    if (r.u32() != poles_.size()) {
      r.fail();
      return;
    }
    for (Pole& p : poles_) p.state = r.f64();
  }

 private:
  struct Pole {
    double tau = 0.0;     // OU time constant
    double sigma2 = 0.0;  // stationary variance contribution
    double state = 0.0;
  };
  std::vector<Pole> poles_;
  Rng rng_;
};

/// Composite input-referred noise for an analog front-end: white + flicker,
/// both referred to one node.
class CompositeNoise {
 public:
  CompositeNoise() = default;

  void add_white(double psd_one_sided, Rng rng);
  void add_flicker(double kf, double f_lo, double f_hi, Rng rng);

  double sample(double dt);

  /// The source composition is frozen at wiring time, so the counts act as
  /// shape checks and only per-source evolving state is serialized. The
  /// third count is the seed's RTS-source slot: always 0, kept so the
  /// per-pixel snapshot layout stays byte-identical.
  void save_state(snapshot::StateWriter& w) const {
    w.u32(static_cast<std::uint32_t>(white_.size()));
    for (const WhiteNoise& s : white_) s.save_state(w);
    w.u32(static_cast<std::uint32_t>(flicker_.size()));
    for (const FlickerNoise& s : flicker_) s.save_state(w);
    w.u32(0);
  }
  void load_state(snapshot::StateReader& r) {
    if (r.u32() != white_.size()) {
      r.fail();
      return;
    }
    for (WhiteNoise& s : white_) s.load_state(r);
    if (r.u32() != flicker_.size()) {
      r.fail();
      return;
    }
    for (FlickerNoise& s : flicker_) s.load_state(r);
    if (r.u32() != 0) r.fail();
  }

 private:
  std::vector<WhiteNoise> white_;
  std::vector<FlickerNoise> flicker_;
};

}  // namespace biosense::noise
