// Behavioral MOSFET model (EKV-style long-channel).
//
// The chips in the paper rely on transistor behaviour across *all* operating
// regions: the DNA chip's regulation loop runs its source follower in strong
// inversion while pA-level sensor currents put other devices deep into
// subthreshold; the neural pixel's sensor transistor M1 is biased in
// moderate inversion and its calibration exploits the monotonic I(V_GS)
// characteristic. A simple square-law model with a hard subthreshold cutoff
// breaks those simulations, so we use the EKV interpolation, which is
// smooth and accurate from weak through strong inversion:
//
//   I_D = 2 n beta V_T^2 [ F(V_P/V_T) - F((V_P - V_DS)/V_T) ]
//   F(x) = ln^2(1 + e^{x/2}),  V_P = (V_GS - V_T0)/n
//
// with beta = KP * W/L, V_T the thermal voltage, n the subthreshold slope
// factor, plus first-order channel-length modulation. Voltages are
// source-referenced (bulk tied to source; body effect folded into n); the
// PMOS model mirrors the NMOS one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/aligned.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"
#include "noise/counter.hpp"
#include "noise/mismatch.hpp"

namespace biosense::circuit {

namespace detail {
/// F(x) = ln^2(1 + e^{x/2}) is computed as (max(z, 0) + ln(1 + e^{-|z|}))^2
/// with z = x/2, so neither term can overflow, from the in-repo exp and
/// log1p kernels (noise/counter.hpp). Branch-free, with no FP select: the
/// sign, the max and the clamp of |z| at 708 are integer operations on
/// the bits, so a loop over lanes vectorizes and each lane gives the
/// scalar bits. Past the clamp e^{-|z|} <= e^-708 changes no bit of F:
/// z + e^-708 rounds to z for z > 708, and the square of a log1p of at most
/// e^-708 underflows to 0. NaN passes the clamp, so F(NaN) is NaN; F(+inf)
/// is inf and F(-inf) is 0.
///
/// F comes in two halves, e^{-|z|} and the rest, which ekv_f composes. A
/// lane loop runs each half as its own loop: the halves' dependency chains
/// then overlap across lanes, where one fused loop body is too long for the
/// core to overlap two of its iterations.
inline double ekv_f_exp(double x) {
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  constexpr std::uint64_t kInf = 0x7ff0000000000000ULL;
  constexpr std::uint64_t kCap = std::bit_cast<std::uint64_t>(708.0);
  const std::uint64_t mag = std::bit_cast<std::uint64_t>(0.5 * x) & ~kSign;
  // Non-negative doubles order like their bits, so a borrow out of the
  // difference compares them: clamp where kCap < mag <= kInf.
  const std::uint64_t over = ((kCap - mag) >> 63) ^ ((kInf - mag) >> 63);
  const std::uint64_t a = mag ^ ((mag ^ kCap) & (0 - over));
  return noise::exp_nonpositive(std::bit_cast<double>(a | kSign));
}

/// F(x) from e = ekv_f_exp(x).
inline double ekv_f_from_exp(double x, double e) {
  const std::uint64_t zb = std::bit_cast<std::uint64_t>(0.5 * x);
  // max(z, 0): all of z's bits when its sign is clear, none when set.
  const double pos = std::bit_cast<double>(zb & ((zb >> 63) - 1));
  const double root = pos + noise::log1p_nonnegative(e);
  return root * root;
}

/// The one F of the EKV model: Mosfet, MosfetSpan and the span's lanes all
/// evaluate this arithmetic.
inline double ekv_f(double x) { return ekv_f_from_exp(x, ekv_f_exp(x)); }

/// F(x_f) - F(x_r), the bracket of the EKV current. The reverse term is
/// skipped when it cannot change the result: for x_r < -42,
/// F(x_r) < 2^-60 (F(x) <= e^x: ln(1 + y) <= y; test_mosfet holds the
/// kernel to it), below a quarter ulp of any F(x_f) >= 1, so the
/// subtraction would round back to F(x_f) exactly. A biased pixel's M1
/// sits at x_r ~ -73 with F(x_f) ~ 4.3, so each read saves one F. Lanes
/// (MosfetSpan::drain_currents) may therefore subtract F(x_r) on every
/// lane of a block where any lane needs it and still give these bits.
inline bool ekv_rev_negligible(double fwd, double x_r) {
  return x_r < -42.0 && fwd >= 1.0;
}

inline double ekv_fwd_minus_rev(double x_f, double x_r) {
  const double fwd = ekv_f(x_f);
  if (ekv_rev_negligible(fwd, x_r)) return fwd;
  return fwd - ekv_f(x_r);
}
}  // namespace detail

enum class MosType { kNmos, kPmos };

/// Electrical + geometric parameters of one device. Defaults approximate the
/// paper's 0.5 um / 5 V CMOS process (t_ox = 15 nm).
struct MosfetParams {
  MosType type = MosType::kNmos;
  double w = 1e-6;        // channel width, m
  double l = 0.5e-6;      // channel length, m
  double vt0 = 0.7;       // zero-bias threshold, V (magnitude)
  double kp = 115e-6;     // transconductance factor mu*Cox, A/V^2
  double lambda = 0.06;   // channel-length modulation, 1/V (at L = 0.5 um)
  double n = 1.35;        // subthreshold slope factor
  double temp_k = 300.0;  // device temperature
  /// Threshold temperature coefficient, V/K (V_T falls when hot).
  double vt_tempco = -1.2e-3;
  /// Mobility exponent: kp scales as (T/300K)^(-mobility_exponent).
  double mobility_exponent = 1.5;
};

class Mosfet {
 public:
  explicit Mosfet(MosfetParams params,
                  noise::DeviceMismatch mismatch = {});

  /// Drain current for gate/drain/source potentials referred to bulk.
  /// For PMOS pass the actual node voltages; the model handles polarity.
  /// Positive current flows drain->source for NMOS (source->drain for PMOS).
  double drain_current(double vg, double vd, double vs) const;

  /// Transconductance dI_D/dV_G at the given bias (numeric, central diff).
  double gm(double vg, double vd, double vs) const;

  /// Gate voltage (referred to bulk) that makes the device carry `id` with
  /// the given drain/source potentials. Solved by bisection; this is what a
  /// diode-connection or a calibration feedback loop settles to.
  double vgs_for_current(double id, double vd, double vs) const;

  /// Effective threshold including the sampled mismatch and the
  /// temperature shift relative to 300 K.
  double effective_vt() const {
    return params_.vt0 + mismatch_.delta_vt +
           params_.vt_tempco * (params_.temp_k - 300.0);
  }

  const MosfetParams& params() const { return params_; }
  const noise::DeviceMismatch& mismatch() const { return mismatch_; }

  /// Effective transconductance factor kp * W/L * beta_ratio * mobility
  /// (the value the constructor derived); lets MosfetSpan capture a device
  /// without re-deriving it.
  double beta() const { return beta_; }

 private:
  // Forward/reverse EKV current for source-referenced voltages (NMOS frame).
  double ekv_current(double vgs, double vds) const;

  MosfetParams params_;
  noise::DeviceMismatch mismatch_;
  double beta_;  // kp * W/L * beta_ratio
};

/// Plane-structured evaluation of many same-role devices (e.g. every pixel's
/// sensor transistor M1). Shared params (type, n, lambda, thermal voltage)
/// are stored once; only the per-device quantities that mismatch actually
/// perturbs — effective V_T and the specific current 2 n beta V_T^2 — live in
/// contiguous planes, so a capture loop indexes two doubles per device
/// instead of chasing a Mosfet object. drain_current(i, ...) reproduces
/// Mosfet::drain_current bit for bit for the captured device, and so does
/// each lane of the lane entries, which evaluate up to kLanes devices as
/// SIMD lanes.
class MosfetSpan {
 public:
  /// Most devices one lane-entry call takes.
  static constexpr int kLanes = 8;

  MosfetSpan() = default;

  /// Sizes the span for `count` devices sharing `params` (per-device
  /// mismatch is supplied via set()).
  void reset(const MosfetParams& params, std::size_t count);

  /// Captures device `d` (its sampled mismatch included) at index i.
  void set(std::size_t i, const Mosfet& d);

  std::size_t size() const { return evt_.size(); }

  double drain_current(std::size_t i, double vg, double vd, double vs) const {
    if (params_.type == MosType::kNmos) {
      return ekv_current(i, vg - vs, vd - vs);
    }
    return ekv_current(i, vs - vg, vs - vd);
  }

  double gm(std::size_t i, double vg, double vd, double vs) const {
    const double dv = 1e-6;
    return (drain_current(i, vg + dv, vd, vs) -
            drain_current(i, vg - dv, vd, vs)) /
           (2.0 * dv);
  }

  /// id[j] = drain_current(idx[j], vg[j], vd, vs) for j < count <=
  /// kLanes, as lanes (the devices gathered from any indices).
  void drain_currents(const std::size_t* idx, const double* vg, int count,
                      double vd, double vs, double* id) const;

  /// vg[j] = Mosfet::vgs_for_current(id[j], vd, vs) of device first + j,
  /// for j < count <= kLanes: each lane performs bisect()'s operations on
  /// the same bracket, and the block stops once every lane has reached
  /// its fixed point.
  void vgs_for_currents(std::size_t first, int count, const double* id,
                        double vd, double vs, double* vg) const;

 private:
  double ekv_current(std::size_t i, double vgs, double vds) const {
    const double vp = (vgs - evt_[i]) / params_.n;
    double id = i_spec_[i] *
                detail::ekv_fwd_minus_rev(vp / vt_th_, (vp - vds) / vt_th_);
    if (id > 0.0 && vds > 0.0) id *= 1.0 + params_.lambda * vds;
    return id;
  }

  /// ekv_current over `count` lanes of contiguous per-device constants,
  /// for source-referenced gate voltages `vgs` and one shared vds.
  void ekv_lanes(const double* vgs, const double* evt, const double* i_spec,
                 int count, double vds, double* id) const;

  /// The lanes' drain currents at gate voltages `vg` minus their targets
  /// `id`: bisect()'s f, for the devices from `first` on.
  void solve_residual(std::size_t first, int count, const double* vg,
                      const double* id, double vd, double vs,
                      double* f) const;

  MosfetParams params_;
  double vt_th_ = 0.0;     // thermal voltage at params_.temp_k, hoisted
  Plane<double> evt_;      // effective V_T per device (mismatch + tempco)
  Plane<double> i_spec_;   // 2 n beta V_T^2 per device
};

// The lane entries are defined here, not in mosfet.cpp, so that a kernel
// compiled for a wider x86-64 level inlines them and steps its lanes at
// that width (neurochip/array.cpp, DESIGN.md §16).

inline void MosfetSpan::ekv_lanes(const double* vgs, const double* evt,
                                  const double* i_spec, int count,
                                  double vds, double* id) const {
  const double n = params_.n;
  const double vt = vt_th_;
  alignas(64) double x_f[kLanes];
  alignas(64) double x_r[kLanes];
  alignas(64) double e[kLanes];
  alignas(64) double bracket[kLanes];
  BIOSENSE_LANE_LOOP
  for (int j = 0; j < count; ++j) {
    const double vp = (vgs[j] - evt[j]) / n;
    x_f[j] = vp / vt;
    x_r[j] = (vp - vds) / vt;
  }
  BIOSENSE_LANE_LOOP
  for (int j = 0; j < count; ++j) e[j] = detail::ekv_f_exp(x_f[j]);
  BIOSENSE_LANE_LOOP
  for (int j = 0; j < count; ++j) {
    bracket[j] = detail::ekv_f_from_exp(x_f[j], e[j]);
  }
  // Where the scalar call skips the reverse term, subtracting it changes
  // no bit, so a block subtracts it on every lane or on none.
  bool negligible = true;
  for (int j = 0; j < count; ++j) {
    negligible = negligible && detail::ekv_rev_negligible(bracket[j], x_r[j]);
  }
  if (!negligible) {
    BIOSENSE_LANE_LOOP
    for (int j = 0; j < count; ++j) e[j] = detail::ekv_f_exp(x_r[j]);
    BIOSENSE_LANE_LOOP
    for (int j = 0; j < count; ++j) {
      bracket[j] -= detail::ekv_f_from_exp(x_r[j], e[j]);
    }
  }
  // Channel-length modulation on forward conduction, as ekv_current
  // applies it.
  const double clm = 1.0 + params_.lambda * vds;
  BIOSENSE_LANE_LOOP
  for (int j = 0; j < count; ++j) {
    double d = i_spec[j] * bracket[j];
    if (d > 0.0 && vds > 0.0) d *= clm;
    id[j] = d;
  }
}

inline void MosfetSpan::drain_currents(const std::size_t* idx,
                                       const double* vg, int count,
                                       double vd, double vs,
                                       double* id) const {
  alignas(64) double vgs[kLanes];
  alignas(64) double evt[kLanes];
  alignas(64) double i_spec[kLanes];
  const bool n_frame = params_.type == MosType::kNmos;
  for (int j = 0; j < count; ++j) {
    vgs[j] = n_frame ? vg[j] - vs : vs - vg[j];
    evt[j] = evt_[idx[j]];
    i_spec[j] = i_spec_[idx[j]];
  }
  ekv_lanes(vgs, evt, i_spec, count, n_frame ? vd - vs : vs - vd, id);
}

}  // namespace biosense::circuit
