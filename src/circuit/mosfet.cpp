#include "circuit/mosfet.hpp"

#include <cmath>
#include <stdexcept>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace biosense::circuit {

namespace {

// The bracket and halving budget of every vgs_for_current solve, scalar
// and lanes alike: subthreshold pA needs gate voltages well below VT,
// strong inversion well above.
constexpr double kVgLo = -10.0;
constexpr double kVgHi = 15.0;
constexpr int kBisectIters = 80;

}  // namespace

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
  // I(VG) is monotonic (increasing for NMOS, decreasing for PMOS); bisect()
  // accepts either orientation.
  auto f = [&](double vg) { return drain_current(vg, vd, vs) - id; };
  return bisect(f, kVgLo, kVgHi, kBisectIters);
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

void MosfetSpan::solve_residual(std::size_t first, int count,
                                const double* vg, const double* id,
                                double vd, double vs, double* f) const {
  alignas(64) double vgs[kLanes];
  const bool n_frame = params_.type == MosType::kNmos;
  for (int j = 0; j < count; ++j) vgs[j] = n_frame ? vg[j] - vs : vs - vg[j];
  ekv_lanes(vgs, evt_.data() + first, i_spec_.data() + first, count,
            n_frame ? vd - vs : vs - vd, f);
  for (int j = 0; j < count; ++j) f[j] -= id[j];
}

void MosfetSpan::vgs_for_currents(std::size_t first, int count,
                                  const double* id, double vd, double vs,
                                  double* vg) const {
  require(count > 0 && count <= kLanes &&
              first + static_cast<std::size_t>(count) <= size(),
          "MosfetSpan: lane block out of range");
  for (int j = 0; j < count; ++j) {
    require(id[j] > 0.0, "Mosfet::vgs_for_current: current must be positive");
  }
  alignas(64) double lo[kLanes];
  alignas(64) double hi[kLanes];
  alignas(64) double flo[kLanes];
  alignas(64) double fhi[kLanes];
  alignas(64) double mid[kLanes];
  alignas(64) double fm[kLanes];
  for (int j = 0; j < count; ++j) {
    lo[j] = kVgLo;
    hi[j] = kVgHi;
  }
  solve_residual(first, count, lo, id, vd, vs, flo);
  solve_residual(first, count, hi, id, vd, vs, fhi);
  // bisect()'s entry: a root on an end returns that end (a lane that does
  // still bisects below, harmlessly); otherwise the ends must differ in
  // sign.
  bool on_end[kLanes];
  for (int j = 0; j < count; ++j) {
    on_end[j] = flo[j] == 0.0 || fhi[j] == 0.0;
    if (!on_end[j] && (flo[j] > 0.0) == (fhi[j] > 0.0)) {
      throw std::invalid_argument("bisect: no sign change on interval");
    }
    vg[j] = flo[j] == 0.0 ? kVgLo : kVgHi;  // kept where on_end[j]
  }
  for (int i = 0; i < kBisectIters; ++i) {
    // A lane whose midpoint rounds onto an end repeats this halving
    // forever; the block stops once every lane has.
    bool fixed = true;
    for (int j = 0; j < count; ++j) {
      mid[j] = 0.5 * (lo[j] + hi[j]);
      fixed = fixed && (mid[j] == lo[j] || mid[j] == hi[j]);
    }
    if (fixed) break;
    solve_residual(first, count, mid, id, vd, vs, fm);
    BIOSENSE_LANE_LOOP
    for (int j = 0; j < count; ++j) {
      const bool lo_side = (fm[j] > 0.0) == (flo[j] > 0.0);
      lo[j] = lo_side ? mid[j] : lo[j];
      flo[j] = lo_side ? fm[j] : flo[j];
      hi[j] = lo_side ? hi[j] : mid[j];
    }
  }
  for (int j = 0; j < count; ++j) {
    if (!on_end[j]) vg[j] = 0.5 * (lo[j] + hi[j]);
  }
}

}  // namespace biosense::circuit
