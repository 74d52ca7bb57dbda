#include "neurochip/pixel_bank.hpp"

#include "common/error.hpp"

namespace biosense::neurochip {

void PixelBank::validate_and_size(const PixelParams& params, int rows,
                                  int cols) {
  require(rows > 0 && cols > 0, "PixelBank: dimensions must be positive");
  require(params.store_cap > Capacitance(0.0),
          "PixelBank: storage cap must be positive");
  require(params.i_cal > Current(0.0),
          "PixelBank: calibration current must be positive");
  // Same switch-parameter contract the AnalogSwitch constructor enforced.
  require(params.s1.r_on > 0.0, "AnalogSwitch: r_on must be positive");
  require(params.s1.injection_fraction >= 0.0 &&
              params.s1.injection_fraction <= 1.0,
          "AnalogSwitch: injection fraction must be in [0,1]");
  require(params.s1.compensation >= 0.0 && params.s1.compensation <= 1.0,
          "AnalogSwitch: compensation must be in [0,1]");

  params_ = params;
  rows_ = rows;
  cols_ = cols;
  n_ = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  v_drain_ = params.v_drain.value();
  has_flicker_ = params.noise_flicker_kf > VoltageSq(0.0);
  if (has_flicker_) {
    // Same band/pole density the seed pixel wired into CompositeNoise.
    flicker_plan_ = noise::FlickerPlan(params.noise_flicker_kf.value(), 1.0,
                                       100e3);
  } else {
    flicker_plan_ = noise::FlickerPlan();
  }

  // Bias solves are nominal-device properties — identical for every pixel,
  // hoisted out of the per-pixel loop (the seed recomputed them per pixel).
  const circuit::Mosfet nominal_m2(params.m2);
  v_bias_m2_ = nominal_m2.vgs_for_current(params.i_cal.value(), v_drain_, 0.0);
  const circuit::Mosfet nominal_m1(params.m1);
  v_bias_nominal_m1_ =
      nominal_m1.vgs_for_current(params.i_cal.value(), v_drain_, 0.0);

  m1_.reset(params.m1, n_);
  v_store_.assign(n_, 0.0);
  s1_rng_.assign(n_, Rng());
  white_rng_.assign(n_, Rng());
  flicker_rng_.assign(n_, Rng());
  flicker_states_.assign(has_flicker_ ? flicker_plan_.poles() * n_ : 0, 0.0);
  s1_closed_.assign(n_, 0);
  calibrated_.assign(n_, 0);
  i_m2_.assign(n_, 0.0);
  v_balance_.assign(n_, 0.0);
  i_quiet_.assign(n_, 0.0);
  consts_ = FrameConsts{};
}

void PixelBank::init_pixel(std::size_t i, Rng child,
                           noise::MismatchSampler& mismatch) {
  // Exact seed draw order per pixel: mismatch samples for M1 then M2, then
  // child forks for the switch, white and flicker streams (the flicker
  // constructor's stationary-state draws advance the flicker fork).
  const circuit::Mosfet m1_dev(params_.m1,
                               mismatch.sample(params_.m1.w, params_.m1.l));
  const circuit::Mosfet m2_dev(params_.m2,
                               mismatch.sample(params_.m2.w, params_.m2.l));
  s1_rng_[i] = child.fork();
  s1_closed_[i] = 0;
  white_rng_[i] = child.fork();
  if (has_flicker_) {
    flicker_rng_[i] = child.fork();
    noise::flicker_init_strided(flicker_plan_, flicker_rng_[i],
                                flicker_states_.data() + i, n_);
  }
  m1_.set(i, m1_dev);
  // M2's mismatch displaces the current the shared nominal bias forces.
  i_m2_[i] = m2_dev.drain_current(v_bias_m2_, v_drain_, 0.0);
  v_balance_[i] = m1_.vgs_for_current(i, i_m2_[i], v_drain_, 0.0);
  // Power-up state (the seed constructor's trailing decalibrate()).
  v_store_[i] = v_bias_nominal_m1_;
  calibrated_[i] = 0;
  i_quiet_[i] = quiet_of(i);
}

void PixelBank::build(const PixelParams& params, int rows, int cols,
                      noise::MismatchSampler& mismatch, Rng& master) {
  validate_and_size(params, rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      // Row-major construction (the seed's pixel vector order) into
      // column-major planes.
      init_pixel(plane_index(r, c), master.fork(), mismatch);
    }
  }
}

const PixelBank::FrameConsts& PixelBank::prepare(double dt) {
  require(dt > 0.0, "WhiteNoise: dt must be positive");
  if (!consts_.valid || consts_.dt != dt) {
    consts_.dt = dt;
    consts_.white_sigma =
        noise::white_step_sigma(params_.noise_white_psd.value(), dt);
    if (has_flicker_) consts_.flicker.prepare(flicker_plan_, dt);
    consts_.valid = true;
  }
  return consts_;
}

void PixelBank::save_pixel_state(std::size_t i,
                                 snapshot::StateWriter& w) const {
  // AnalogSwitch section.
  w.rng(s1_rng_[i]);
  w.b(s1_closed_[i] != 0);
  // CompositeNoise section: one white source, 0/1 flicker, 0 RTS.
  w.u32(1);
  w.rng(white_rng_[i]);
  w.u32(has_flicker_ ? 1u : 0u);
  if (has_flicker_) {
    w.rng(flicker_rng_[i]);
    w.u32(static_cast<std::uint32_t>(flicker_plan_.poles()));
    for (std::size_t k = 0; k < flicker_plan_.poles(); ++k) {
      w.f64(flicker_states_[k * n_ + i]);
    }
  }
  w.u32(0);
  // Pixel scalars.
  w.f64(v_store_[i]);
  w.b(calibrated_[i] != 0);
}

void PixelBank::load_pixel_state(std::size_t i, snapshot::StateReader& r) {
  r.rng(s1_rng_[i]);
  s1_closed_[i] = r.b() ? 1 : 0;
  if (r.u32() != 1) {
    r.fail();
    return;
  }
  r.rng(white_rng_[i]);
  if (r.u32() != (has_flicker_ ? 1u : 0u)) {
    r.fail();
    return;
  }
  if (has_flicker_) {
    r.rng(flicker_rng_[i]);
    if (r.u32() != flicker_plan_.poles()) {
      r.fail();
      return;
    }
    for (std::size_t k = 0; k < flicker_plan_.poles(); ++k) {
      flicker_states_[k * n_ + i] = r.f64();
    }
  }
  if (r.u32() != 0) {
    r.fail();
    return;
  }
  v_store_[i] = r.f64();
  calibrated_[i] = r.b() ? 1 : 0;
}

void PixelBank::refresh_quiet_all() {
  for (std::size_t i = 0; i < n_; ++i) i_quiet_[i] = quiet_of(i);
}

}  // namespace biosense::neurochip
