#include "circuit/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace biosense::circuit {

Mosfet::Mosfet(MosfetParams params, noise::DeviceMismatch mismatch)
    : params_(params), mismatch_(mismatch) {
  require(params.w > 0.0 && params.l > 0.0, "Mosfet: geometry must be positive");
  require(params.kp > 0.0, "Mosfet: kp must be positive");
  require(params.n >= 1.0, "Mosfet: slope factor n must be >= 1");
  require(params.temp_k > 0.0, "Mosfet: temperature must be positive");
  // Mobility degradation with temperature: kp ~ (T/300K)^-m.
  const double mobility_factor =
      std::pow(params.temp_k / 300.0, -params.mobility_exponent);
  beta_ = params.kp * params.w / params.l * mismatch.beta_ratio *
          mobility_factor;
}

double Mosfet::ekv_current(double vgs, double vds) const {
  // Source-referenced EKV (bulk tied to source; body effect folded into n).
  const double vt_th = thermal_voltage(params_.temp_k).value();
  const double vp = (vgs - effective_vt()) / params_.n;  // pinch-off voltage
  const double i_spec = 2.0 * params_.n * beta_ * vt_th * vt_th;
  double id =
      i_spec * detail::ekv_fwd_minus_rev(vp / vt_th, (vp - vds) / vt_th);
  // First-order channel-length modulation on the net current; only applied
  // when the device actually conducts forward.
  if (id > 0.0 && vds > 0.0) id *= 1.0 + params_.lambda * vds;
  return id;
}

double Mosfet::drain_current(double vg, double vd, double vs) const {
  if (params_.type == MosType::kNmos) {
    return ekv_current(vg - vs, vd - vs);
  }
  // PMOS: mirror into the NMOS frame (source-gate / source-drain voltages),
  // positive current meaning source->drain conduction.
  return ekv_current(vs - vg, vs - vd);
}

double Mosfet::gm(double vg, double vd, double vs) const {
  const double dv = 1e-6;
  return (drain_current(vg + dv, vd, vs) - drain_current(vg - dv, vd, vs)) /
         (2.0 * dv);
}

double Mosfet::vgs_for_current(double id, double vd, double vs) const {
  require(id > 0.0, "Mosfet::vgs_for_current: current must be positive");
  // I(VG) is monotonic (increasing for NMOS, decreasing for PMOS); bracket
  // the root generously — subthreshold pA needs gate voltages well below VT,
  // strong inversion well above. bisect() accepts either orientation.
  auto f = [&](double vg) { return drain_current(vg, vd, vs) - id; };
  return bisect(f, -10.0, 15.0, 80);
}

void MosfetSpan::reset(const MosfetParams& params, std::size_t count) {
  params_ = params;
  vt_th_ = thermal_voltage(params.temp_k).value();
  evt_.assign(count, 0.0);
  i_spec_.assign(count, 0.0);
}

void MosfetSpan::set(std::size_t i, const Mosfet& d) {
  evt_[i] = d.effective_vt();
  // Same association order as Mosfet::ekv_current: 2.0 * n * beta * vt * vt.
  i_spec_[i] = 2.0 * params_.n * d.beta() * vt_th_ * vt_th_;
}

double MosfetSpan::vgs_for_current(std::size_t i, double id, double vd,
                                   double vs) const {
  require(id > 0.0, "Mosfet::vgs_for_current: current must be positive");
  auto f = [&](double vg) { return drain_current(i, vg, vd, vs) - id; };
  return bisect(f, -10.0, 15.0, 80);
}

}  // namespace biosense::circuit
