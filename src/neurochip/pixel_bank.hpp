// Structure-of-arrays pixel-physics engine for the 128x128 recording array.
//
// Each calibrated sensor pixel (Fig. 6) converts the electrode voltage
// riding on the gate of its sensor transistor M1 into a drain current. Raw
// V_T mismatch between pixels is tens of millivolts — two orders of
// magnitude above the 100 uV .. 5 mV signals — so each pixel is calibrated
// in place:
//
//  * Calibration: S1 closes, the current source M2 forces its current
//    through M1, and the feedback stores exactly the gate voltage that
//    makes M1 carry M2's current on the gate storage capacitance. When S1
//    opens again, M1 reproduces M2's current regardless of either device's
//    parameters. The imperfections are the switch charge injection
//    (a pedestal on the storage cap) and leakage droop until the next
//    calibration cycle.
//  * Readout: S1 open, S3 closed, M2 sinks the same current; the electrode
//    signal coupled onto M1's gate unbalances M1 against M2 and the
//    difference current Delta_I = gm * (v_signal + v_residual) flows into
//    the column regulation loop (A, M3, M4) toward the gain stages.
//
// The seed implementation stored one pixel object per site, each
// owning two `Mosfet`s, an `AnalogSwitch` and a `CompositeNoise` — ~0.5 kB
// of scattered state and three levels of indirection per pixel visit, which
// capped capture at ~105 frames/s against the chip's 2 k frames/s.
// `PixelBank` keeps the same physics as contiguous cache-line-aligned planes
// (DESIGN.md §16):
//
//   * per-pixel die constants: effective V_T / specific current of M1
//     (inside a `circuit::MosfetSpan`), M2's as-fabricated current
//     `i_m2`, the balance voltage `v_balance`;
//   * per-pixel evolving state: the storage-cap voltage `v_store`, the
//     calibration flag, the S1 position, and the RNG + OU-pole state of the
//     noise streams;
//   * shared frame constants hoisted once per `dt`: the white-noise step
//     sigma and the flicker per-pole decay/innovation pairs
//     (`FrameConsts`, via `prepare()`).
//
// Planes are column-major (`plane_index(r, c) = c * rows + r`) so an output
// channel's 8-row run per column is one contiguous 64-byte cache line —
// parallel channel workers never share a line. Every method reproduces the
// corresponding seed pixel member bit for bit (tests/test_neuro_golden
// locks this against an in-test replica of the seed object model), and
// `save_pixel_state`/`load_pixel_state` emit the exact per-pixel byte
// layout of the old object model so historical checkpoints restore.
#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/mosfet.hpp"
#include "circuit/switch.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "noise/mismatch.hpp"
#include "noise/sources.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::neurochip {

struct PixelParams {
  circuit::MosfetParams m1{};       // sensor transistor
  circuit::MosfetParams m2{};       // calibration current source
  Capacitance store_cap = 80.0_fF;  // gate storage capacitance
  circuit::SwitchParams s1{};       // calibration switch
  Current i_cal = 2.0_uA;           // nominal calibration current
  /// Storage-node leakage. ~10 aA is typical for a reverse-biased junction
  /// at room temperature; it sets how often the array must re-calibrate
  /// (droop = leak/C_store ~ 0.125 mV/s with the defaults, i.e. ~60 uV per
  /// 0.5 s — just inside the 100 uV signal floor).
  Current droop_leak = Current(10e-18);
  Voltage v_drain = 2.0_V;          // M1 drain operating point
  /// Input-referred noise of the pixel front-end.
  VoltagePsd noise_white_psd = VoltagePsd(2.5e-15);  // V^2/Hz (~50 nV/rtHz)
  VoltageSq noise_flicker_kf = VoltageSq(1e-10);     // V^2 (1/f coefficient)
};

class PixelBank {
 public:
  /// Per-dt frame constants hoisted out of the pixel loop by prepare().
  struct FrameConsts {
    double dt = 0.0;
    bool valid = false;
    double white_sigma = 0.0;
    noise::FlickerStepConsts flicker;
  };

  PixelBank() = default;

  /// Builds a rows x cols bank: per pixel (row-major, the seed's
  /// construction order) draws M1/M2 mismatch from `mismatch` and forks the
  /// per-pixel generator from `master`, reproducing the draw sequence of
  /// constructing `rows*cols` seed pixels.
  void build(const PixelParams& params, int rows, int cols,
             noise::MismatchSampler& mismatch, Rng& master);

  std::size_t size() const { return n_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  const PixelParams& params() const { return params_; }

  /// Column-major plane index: a channel's 8-row run per column is one
  /// contiguous cache line of doubles.
  std::size_t plane_index(int r, int c) const {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(rows_) +
           static_cast<std::size_t>(r);
  }

  // --- Per-pixel operations (the seed pixel's members) ---------------------

  void calibrate(std::size_t i) {
    v_store_[i] = v_balance_[i];
    s1_closed_[i] = 1;
    v_store_[i] += (Charge(switch_open(i)) / params_.store_cap).value();
    calibrated_[i] = 1;
    i_quiet_[i] = quiet_of(i);
  }

  void decalibrate(std::size_t i) {
    v_store_[i] = v_bias_nominal_m1_;
    calibrated_[i] = 0;
    i_quiet_[i] = quiet_of(i);
  }

  double read_current(std::size_t i, double v_signal, double dt) {
    if (dt > 0.0) return read_current_prepared(i, v_signal, prepare(dt));
    const double v_gate = v_store_[i] + v_signal;
    return m1_.drain_current(i, v_gate, v_drain_, 0.0) - i_m2_[i];
  }

  double input_referred_offset(std::size_t i) const {
    return v_store_[i] - v_balance_[i];
  }

  double gm(std::size_t i) const {
    return m1_.gm(i, v_balance_[i], v_drain_, 0.0);
  }

  double m2_current(std::size_t i) const { return i_m2_[i]; }
  bool calibrated(std::size_t i) const { return calibrated_[i] != 0; }

  // --- Hot-path kernel API -------------------------------------------------

  /// Hoists the per-dt noise constants; cached while dt is unchanged.
  /// Call once per frame, outside the pixel loop.
  const FrameConsts& prepare(double dt);

  /// Storage droop for an interval, hoisted out of the loop (same value the
  /// seed recomputed per pixel).
  double droop_dv(double dt) const {
    return (params_.droop_leak * Time(dt) / params_.store_cap).value();
  }

  /// read_current with the per-dt constants prepared; bit-identical to the
  /// seed pixel's noise-on read at the same dt.
  double read_current_prepared(std::size_t i, double v_signal,
                               const FrameConsts& fc) {
    double noise = 0.0;
    noise += white_rng_[i].normal(0.0, fc.white_sigma);
    if (has_flicker_) {
      noise += noise::flicker_sample_strided(fc.flicker, flicker_rng_[i],
                                             flicker_states_.data() + i, n_);
    }
    double v_gate = v_store_[i] + v_signal;
    v_gate += noise;
    return m1_.drain_current(i, v_gate, v_drain_, 0.0) - i_m2_[i];
  }

  /// Advances pixel i's hold-time droop by `dv` (from droop_dv()).
  void droop(std::size_t i, double dv) { v_store_[i] -= dv; }

  /// Cached zero-signal difference current for the sparse quiescence path;
  /// refreshed at (de)calibration and snapshot restore.
  double quiet_current(std::size_t i) const { return i_quiet_[i]; }

  // --- Snapshot ------------------------------------------------------------

  /// Emits pixel i in the exact byte layout of the old per-pixel object
  /// model (switch stream+position, composite-noise section, v_store,
  /// calibrated flag) so old checkpoints and the bank interchange freely.
  void save_pixel_state(std::size_t i, snapshot::StateWriter& w) const;
  void load_pixel_state(std::size_t i, snapshot::StateReader& r);

  /// Re-derives every pixel's quiescent current after a bulk state load.
  void refresh_quiet_all();

 private:
  void init_pixel(std::size_t i, Rng child, noise::MismatchSampler& mismatch);
  void validate_and_size(const PixelParams& params, int rows, int cols);

  /// AnalogSwitch::open() over plane state: charge injected into the hold
  /// node when S1 opens (0 if it was not closed).
  double switch_open(std::size_t i) {
    if (!s1_closed_[i]) return 0.0;
    s1_closed_[i] = 0;
    const double nominal =
        -params_.s1.channel_charge * params_.s1.injection_fraction;
    return nominal * (1.0 - params_.s1.compensation) +
           nominal * s1_rng_[i].normal(0.0, params_.s1.injection_sigma);
  }

  double quiet_of(std::size_t i) const {
    return m1_.drain_current(i, v_store_[i], v_drain_, 0.0) - i_m2_[i];
  }

  PixelParams params_;  // analyze:transient - frozen config
  int rows_ = 0;
  int cols_ = 0;
  std::size_t n_ = 0;
  double v_drain_ = 0.0;  // analyze:transient - frozen config (cached value)
  // analyze:transient - frozen die/bias constants, re-derived at build
  double v_bias_m2_ = 0.0;
  double v_bias_nominal_m1_ = 0.0;  // analyze:transient - frozen bias constant
  bool has_flicker_ = false;  // analyze:transient - frozen config
  noise::FlickerPlan flicker_plan_;  // analyze:transient - frozen config
  circuit::MosfetSpan m1_;  // analyze:transient - frozen die constants

  // Evolving per-pixel planes (serialized via save_pixel_state).
  Plane<double> v_store_;
  Plane<Rng> s1_rng_;
  Plane<Rng> white_rng_;
  Plane<Rng> flicker_rng_;
  Plane<double> flicker_states_;  // pole-major: [pole * n_ + pixel]
  Plane<std::uint8_t> s1_closed_;
  Plane<std::uint8_t> calibrated_;

  // analyze:transient - frozen die constants, re-derived at build
  Plane<double> i_m2_;
  Plane<double> v_balance_;  // analyze:transient - frozen die constants
  // analyze:transient - derived cache, refreshed on load/(de)calibrate
  Plane<double> i_quiet_;

  FrameConsts consts_;  // analyze:transient - per-dt cache, rebuilt on demand
};

}  // namespace biosense::neurochip
