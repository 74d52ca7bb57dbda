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
// worker owns per column, and the run's front ends step as lanes
// (front_end); a single-pixel read is a run of 1 with the same bits.
//
// Planes are column-major (`plane_index(r, c) = c * rows + r`) so an output
// channel's 8-row run per column is one contiguous 64-byte cache line —
// parallel channel workers never share a line.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "circuit/mosfet.hpp"
#include "circuit/switch.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "noise/counter.hpp"
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
  /// (a draw_noise and front_end run of 1).
  double read_current(std::size_t i, double v_signal, double dt) {
    double noise = 0.0;
    if (dt > 0.0) draw_noise(&i, 1, prepare(dt), &noise);
    double i_diff = 0.0;
    front_end(&i, 1, &v_signal, &noise, &i_diff);
    return i_diff;
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

  /// M1's difference current against M2 for `count` <= kBatch pixels
  /// (plane indices `idx`) with v_signal[j] and noise[j] on the gate, into
  /// i_diff[j]. The run's M1s step as SIMD lanes (MosfetSpan's lane
  /// entry), each giving the scalar model's bits.
  void front_end(const std::size_t* idx, int count, const double* v_signal,
                 const double* noise, double* i_diff) const;

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
  /// Box-Muller pairs per pixel-step: white + kFlickerPoles normals,
  /// rounded up to whole pairs (one normal of the last pair goes unused).
  static constexpr int kPairs =
      (static_cast<int>(noise::kFlickerPoles) + 2) / 2;

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

static_assert(PixelBank::kBatch <= circuit::MosfetSpan::kLanes,
              "a front-end run must fit one MosfetSpan lane block");

// The batch kernels are defined here, not in pixel_bank.cpp, so that the
// frame kernel's entry for each x86-64 level inlines them and steps their
// loops at that width (neurochip/array.cpp, DESIGN.md §16). The Box-Muller
// loop vectorizes only where std::sqrt need not set errno: array.cpp
// builds with -fno-math-errno (src/neurochip/CMakeLists.txt).

inline void PixelBank::draw_noise(const std::size_t* idx, int count,
                                  const FrameConsts& fc, double* noise) {
  // Three passes over the run: counter draws to uniforms (integer work),
  // Box-Muller over every pair of the run (the loop GCC vectorizes), then
  // each pixel's pole update. Normal q of pixel j sits at z[j*2*pairs + q],
  // the layout noise::step_normals produces for one pixel.
  const int pairs = has_flicker_ ? kPairs : 1;
  alignas(64) double u1[kBatch * kPairs];
  alignas(64) double u2[kBatch * kPairs];
  alignas(64) double z[2 * kBatch * kPairs];
  for (int j = 0; j < count; ++j) {
    const std::size_t i = idx[j];
    const std::uint64_t base = noise::counter_base(key_, i, step_[i]++);
    for (int p = 0; p < pairs; ++p) {
      const auto d = static_cast<std::uint64_t>(2 * p);
      u1[j * pairs + p] = noise::open_uniform(noise::counter_draw(base, d));
      u2[j * pairs + p] =
          noise::open_uniform(noise::counter_draw(base, d + 1));
    }
  }
  const int n_pairs = count * pairs;
  for (int m = 0; m < n_pairs; ++m) {
    noise::box_muller(u1[m], u2[m], z[2 * m], z[2 * m + 1]);
  }
  for (int j = 0; j < count; ++j) {
    const std::size_t i = idx[j];
    const double* zj = z + 2 * j * pairs;
    const std::uint64_t lag = lag_[i];
    lag_[i] = 0;
    double flicker = 0.0;
    if (has_flicker_) {
      const double steps = static_cast<double>(lag) + 1.0;
      for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
        double a = fc.flicker.a[k];
        double s = fc.flicker.s[k];
        if (lag != 0) {
          // Exact OU fast-forward over the skipped steps:
          // x <- a^n x + N(0, sigma2 (1 - a^2n)).
          a = std::exp(-steps * fc.flicker.rate[k]);
          s = std::sqrt(flicker_plan_.sigma2 * (1.0 - a * a));
        }
        double& x = flicker_states_[k * n_ + i];
        x = x * a + s * zj[k + 1];
        flicker += x;
      }
    }
    noise[j] = fc.white_sigma * zj[0] + flicker;
  }
}

inline void PixelBank::front_end(const std::size_t* idx, int count,
                                 const double* v_signal, const double* noise,
                                 double* i_diff) const {
  double v_gate[kBatch] = {};
  for (int j = 0; j < count; ++j) {
    double v = v_store_[idx[j]] + v_signal[j];
    v += noise[j];
    v_gate[j] = v;
  }
  m1_.drain_currents(idx, v_gate, count, v_drain_, 0.0, i_diff);
  for (int j = 0; j < count; ++j) i_diff[j] -= i_m2_[idx[j]];
}

}  // namespace biosense::neurochip
