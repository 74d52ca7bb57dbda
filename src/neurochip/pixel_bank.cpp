#include "neurochip/pixel_bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "noise/counter.hpp"

namespace biosense::neurochip {

void PixelBank::build(const PixelParams& params, int rows, int cols,
                      noise::MismatchSampler& mismatch, Rng& master) {
  require(rows > 0 && cols > 0, "PixelBank: dimensions must be positive");
  require(params.store_cap > Capacitance(0.0),
          "PixelBank: storage cap must be positive");
  require(params.i_cal > Current(0.0),
          "PixelBank: calibration current must be positive");
  require(params.noise_white_psd >= VoltagePsd(0.0),
          "PixelBank: white-noise PSD must be non-negative");
  require(params.s1.r_on > 0.0, "PixelBank: switch r_on must be positive");
  require(params.s1.injection_fraction >= 0.0 &&
              params.s1.injection_fraction <= 1.0,
          "PixelBank: switch injection fraction must be in [0,1]");
  require(params.s1.compensation >= 0.0 && params.s1.compensation <= 1.0,
          "PixelBank: switch compensation must be in [0,1]");

  params_ = params;
  rows_ = rows;
  n_ = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  v_drain_ = params.v_drain.value();
  has_flicker_ = params.noise_flicker_kf > VoltageSq(0.0);
  flicker_plan_ = noise::FlickerPlan(params.noise_flicker_kf.value());
  key_ = master.next_u64();

  // Bias solves are nominal-device properties, identical for every pixel.
  const circuit::Mosfet nominal_m2(params.m2);
  const double v_bias_m2 =
      nominal_m2.vgs_for_current(params.i_cal.value(), v_drain_, 0.0);
  const circuit::Mosfet nominal_m1(params.m1);
  v_bias_nominal_m1_ =
      nominal_m1.vgs_for_current(params.i_cal.value(), v_drain_, 0.0);

  m1_.reset(params.m1, n_);
  v_store_.assign(n_, v_bias_nominal_m1_);
  step_.assign(n_, 0);
  lag_.assign(n_, 0);
  flicker_states_.assign(has_flicker_ ? noise::kFlickerPoles * n_ : 0, 0.0);
  calibrated_.assign(n_, 0);
  i_m2_.assign(n_, 0.0);
  v_balance_.assign(n_, 0.0);
  i_quiet_.assign(n_, 0.0);
  consts_ = FrameConsts{};

  const double pole_sigma = std::sqrt(flicker_plan_.sigma2);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      // Row-major mismatch draws (the seed's pixel order) into column-major
      // planes.
      const std::size_t i = plane_index(r, c);
      const circuit::Mosfet m1_dev(params.m1,
                                   mismatch.sample(params.m1.w, params.m1.l));
      const circuit::Mosfet m2_dev(params.m2,
                                   mismatch.sample(params.m2.w, params.m2.l));
      m1_.set(i, m1_dev);
      // M2's mismatch displaces the current the shared nominal bias forces.
      i_m2_[i] = m2_dev.drain_current(v_bias_m2, v_drain_, 0.0);
      i_quiet_[i] = quiet_of(i);
      if (has_flicker_) {
        // Step 0 starts every pole in its stationary distribution, so the
        // process has no warm-up transient.
        double z[2 * kPairs];
        noise::step_normals(key_, i, step_[i]++, kPairs, z);
        for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
          flicker_states_[k * n_ + i] = pole_sigma * z[k + 1];
        }
      }
    }
  }
  // The balance voltage that makes each M1 carry its M2's current: one
  // bisection per pixel, solved a block of lanes at a time in plane order.
  constexpr auto kLanes = static_cast<std::size_t>(circuit::MosfetSpan::kLanes);
  for (std::size_t first = 0; first < n_; first += kLanes) {
    const auto count = static_cast<int>(std::min(kLanes, n_ - first));
    m1_.vgs_for_currents(first, count, i_m2_.data() + first, v_drain_, 0.0,
                         v_balance_.data() + first);
  }
}

void PixelBank::calibrate(std::size_t i) {
  double z[2];
  noise::step_normals(key_, i, step_[i]++, 1, z);
  const double nominal =
      -params_.s1.channel_charge * params_.s1.injection_fraction;  // electrons
  // The dummy switch cancels `compensation` of the nominal charge; the
  // device-dependent random part survives in full.
  const double q = nominal * (1.0 - params_.s1.compensation) +
                   nominal * (params_.s1.injection_sigma * z[0]);
  v_store_[i] = v_balance_[i] + (Charge(q) / params_.store_cap).value();
  calibrated_[i] = 1;
  i_quiet_[i] = quiet_of(i);
}

const PixelBank::FrameConsts& PixelBank::prepare(double dt) {
  require(dt > 0.0, "PixelBank: noise step dt must be positive");
  if (!consts_.valid || consts_.dt != dt) {
    consts_.dt = dt;
    consts_.white_sigma =
        noise::white_step_sigma(params_.noise_white_psd.value(), dt);
    if (has_flicker_) consts_.flicker.prepare(flicker_plan_, dt);
    consts_.valid = true;
  }
  return consts_;
}

void PixelBank::save_state(snapshot::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(n_));
  w.b(has_flicker_);
  for (std::size_t i = 0; i < n_; ++i) {
    w.u64(step_[i]);
    w.u64(lag_[i]);
    w.f64(v_store_[i]);
    w.b(calibrated_[i] != 0);
  }
  for (const double x : flicker_states_) w.f64(x);
}

void PixelBank::load_state(snapshot::StateReader& r) {
  if (r.u32() != n_ || r.b() != has_flicker_) {
    r.fail();
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    step_[i] = r.u64();
    lag_[i] = r.u64();
    v_store_[i] = r.f64();
    calibrated_[i] = r.b() ? 1 : 0;
  }
  for (double& x : flicker_states_) x = r.f64();
  for (std::size_t i = 0; i < n_; ++i) i_quiet_[i] = quiet_of(i);
}

}  // namespace biosense::neurochip
