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

#include <cmath>
#include <cstddef>

#include "common/aligned.hpp"
#include "common/units.hpp"
#include "noise/mismatch.hpp"

namespace biosense::circuit {

namespace detail {
/// F(x) = ln^2(1 + exp(x/2)), computed overflow-safely. Shared by the
/// scalar Mosfet and the plane-structured MosfetSpan so both evaluate the
/// exact same arithmetic.
inline double ekv_f(double x) {
  double ln_term;
  if (x > 60.0) {
    ln_term = 0.5 * x;  // exp dominates
  } else {
    ln_term = std::log1p(std::exp(0.5 * x));
  }
  return ln_term * ln_term;
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
/// Mosfet::drain_current bit for bit for the captured device.
class MosfetSpan {
 public:
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

  /// Per-device bisection solve, identical brackets to the scalar model.
  double vgs_for_current(std::size_t i, double id, double vd, double vs) const;

 private:
  double ekv_current(std::size_t i, double vgs, double vds) const {
    const double vp = (vgs - evt_[i]) / params_.n;
    const double fwd = detail::ekv_f(vp / vt_th_);
    const double rev = detail::ekv_f((vp - vds) / vt_th_);
    double id = i_spec_[i] * (fwd - rev);
    if (id > 0.0 && vds > 0.0) id *= 1.0 + params_.lambda * vds;
    return id;
  }

  MosfetParams params_;
  double vt_th_ = 0.0;     // thermal voltage at params_.temp_k, hoisted
  Plane<double> evt_;      // effective V_T per device (mismatch + tempco)
  Plane<double> i_spec_;   // 2 n beta V_T^2 per device
};

}  // namespace biosense::circuit
