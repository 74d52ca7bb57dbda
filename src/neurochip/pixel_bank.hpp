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
// `PixelBank` keeps the array's pixel physics as contiguous
// cache-line-aligned planes (DESIGN.md §16):
//
//   * per-pixel die constants: effective V_T / specific current of M1
//     (inside a `circuit::MosfetSpan`), M2's as-fabricated current
//     `i_m2`, the balance voltage `v_balance`;
//   * per-pixel evolving state: the storage-cap voltage `v_store`, the
//     calibration flag, the flicker pole values, the pixel's noise step
//     counter and the quiet reads its poles still owe;
//   * shared frame constants hoisted once per `dt`: the white-noise step
//     sigma and the flicker per-pole decay/innovation pairs
//     (`FrameConsts`, via `prepare()`).
//
// Noise is counter-based (noise/counter.hpp): every draw is a pure
// function of (chip key, pixel, step), and every event that draws — a
// noisy read or a calibration — consumes one step of the pixel's counter.
// The key is frozen config derived from the chip seed at build(), so a
// checkpoint carries one step count per pixel instead of generator state.
// Reads draw in batches (draw_noise) over the 8-row run a phase-2 channel
// worker owns per column; a single-pixel read is a run of 1 with the same
// bits.
//
// Planes are column-major (`plane_index(r, c) = c * rows + r`) so an output
// channel's 8-row run per column is one contiguous 64-byte cache line —
// parallel channel workers never share a line.
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
  /// Most pixels one draw_noise call takes: a channel's 8-row run.
  static constexpr int kBatch = 8;

  /// Per-dt frame constants hoisted out of the pixel loop by prepare().
  struct FrameConsts {
    double dt = 0.0;
    bool valid = false;
    double white_sigma = 0.0;
    noise::FlickerStepConsts flicker;
  };

  PixelBank() = default;

  /// Builds a rows x cols bank: derives the noise key from one `master`
  /// draw, then per pixel (row-major) draws M1/M2 mismatch from `mismatch`
  /// and starts each flicker pole in its stationary distribution.
  void build(const PixelParams& params, int rows, int cols,
             noise::MismatchSampler& mismatch, Rng& master);

  std::size_t size() const { return n_; }

  /// Column-major plane index: a channel's 8-row run per column is one
  /// contiguous cache line of doubles.
  std::size_t plane_index(int r, int c) const {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(rows_) +
           static_cast<std::size_t>(r);
  }

  // --- Per-pixel operations ------------------------------------------------

  /// S1 closes, stores the balance voltage on the gate cap, and opens:
  /// its charge injection (nominal residual after dummy compensation plus
  /// a random part drawn at the pixel's next step) leaves a pedestal.
  void calibrate(std::size_t i);

  void decalibrate(std::size_t i) {
    v_store_[i] = v_bias_nominal_m1_;
    calibrated_[i] = 0;
    i_quiet_[i] = quiet_of(i);
  }

  /// Difference current for one read; dt > 0 draws noise for a step of dt
  /// (a draw_noise run of 1).
  double read_current(std::size_t i, double v_signal, double dt) {
    double noise = 0.0;
    if (dt > 0.0) draw_noise(&i, 1, prepare(dt), &noise);
    return front_end(i, v_signal, noise);
  }

  double input_referred_offset(std::size_t i) const {
    return v_store_[i] - v_balance_[i];
  }

  double gm(std::size_t i) const {
    return m1_.gm(i, v_balance_[i], v_drain_, 0.0);
  }

  double m2_current(std::size_t i) const { return i_m2_[i]; }
  bool calibrated(std::size_t i) const { return calibrated_[i] != 0; }

  /// Flicker pole k of pixel i (input-referred volts).
  double pole(std::size_t i, std::size_t k) const {
    return flicker_states_[k * n_ + i];
  }

  // --- Hot-path kernel API -------------------------------------------------

  /// Hoists the per-dt noise constants; cached while dt is unchanged.
  /// Call once per frame, outside the pixel loop.
  const FrameConsts& prepare(double dt);

  /// Storage droop for an interval, hoisted out of the loop.
  double droop_dv(double dt) const {
    return (params_.droop_leak * Time(dt) / params_.store_cap).value();
  }

  /// Draws the input-referred noise of `count` <= kBatch pixels (plane
  /// indices `idx`, distinct) into noise[j]. Each pixel consumes one step;
  /// its flicker poles advance by the steps they owe (this read plus the
  /// quiet reads since its last draw). A pixel's bits do not depend on the
  /// batch it rides in.
  void draw_noise(const std::size_t* idx, int count, const FrameConsts& fc,
                  double* noise);

  /// M1's difference current against M2 with `noise` on the gate.
  double front_end(std::size_t i, double v_signal, double noise) const {
    double v_gate = v_store_[i] + v_signal;
    v_gate += noise;
    return m1_.drain_current(i, v_gate, v_drain_, 0.0) - i_m2_[i];
  }

  /// A quiescent read: no draws; the poles owe one more step, paid on the
  /// pixel's next draw.
  void skip(std::size_t i) { ++lag_[i]; }

  /// Advances pixel i's hold-time droop by `dv` (from droop_dv()).
  void droop(std::size_t i, double dv) { v_store_[i] -= dv; }

  /// Cached zero-signal difference current for the sparse quiescence path;
  /// refreshed at (de)calibration and snapshot restore.
  double quiet_current(std::size_t i) const { return i_quiet_[i]; }

  // --- Snapshot ------------------------------------------------------------

  /// Evolving state in plane order: per pixel the step count, the owed
  /// quiet reads, v_store, the calibration flag and the pole values.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  double quiet_of(std::size_t i) const {
    return m1_.drain_current(i, v_store_[i], v_drain_, 0.0) - i_m2_[i];
  }

  PixelParams params_;  // analyze:transient - frozen config
  int rows_ = 0;  // analyze:transient - frozen config
  std::size_t n_ = 0;
  double v_drain_ = 0.0;  // analyze:transient - frozen config (cached value)
  double v_bias_nominal_m1_ = 0.0;  // analyze:transient - frozen bias constant
  bool has_flicker_ = false;
  noise::FlickerPlan flicker_plan_;  // analyze:transient - frozen config
  circuit::MosfetSpan m1_;  // analyze:transient - frozen die constants
  // analyze:transient - frozen config, derived from the chip seed at build
  std::uint64_t key_ = 0;

  // Evolving per-pixel planes.
  Plane<double> v_store_;
  Plane<std::uint64_t> step_;     // noise steps consumed
  Plane<std::uint64_t> lag_;      // quiet reads since the last draw
  Plane<double> flicker_states_;  // pole-major: [pole * n_ + pixel]
  Plane<std::uint8_t> calibrated_;

  // analyze:transient - frozen die constants, re-derived at build
  Plane<double> i_m2_;
  Plane<double> v_balance_;  // analyze:transient - frozen die constants
  // analyze:transient - derived cache, refreshed on load/(de)calibrate
  Plane<double> i_quiet_;

  FrameConsts consts_;  // analyze:transient - per-dt cache, rebuilt on demand
};

}  // namespace biosense::neurochip
