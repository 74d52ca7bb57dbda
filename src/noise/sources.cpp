#include "noise/sources.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::noise {

WhiteNoise::WhiteNoise(double psd_one_sided, Rng rng)
    : psd_(psd_one_sided), rng_(rng) {
  require(psd_one_sided >= 0.0, "WhiteNoise: PSD must be non-negative");
}

double WhiteNoise::sample(double dt) {
  require(dt > 0.0, "WhiteNoise: dt must be positive");
  // Band-limited to Nyquist: variance = S * f_s / 2 = S / (2 dt).
  const double sigma = std::sqrt(psd_ / (2.0 * dt));
  return rng_.normal(0.0, sigma);
}

FlickerPlan::FlickerPlan(double kf, double f_lo, double f_hi,
                         int poles_per_decade) {
  require(kf >= 0.0, "FlickerNoise: kf must be non-negative");
  require(f_hi > f_lo && f_lo > 0.0, "FlickerNoise: need 0 < f_lo < f_hi");
  require(poles_per_decade >= 1, "FlickerNoise: need >= 1 pole per decade");
  // Identical pole placement to the FlickerNoise constructor below.
  const double ratio = std::pow(10.0, 1.0 / poles_per_decade);
  sigma2 = kf * std::log(ratio);
  state_sigma = std::sqrt(sigma2);
  for (double fc = f_lo; fc <= f_hi * (1.0 + 1e-12); fc *= ratio) {
    tau.push_back(1.0 / (2.0 * constants::kPi * fc));
  }
}

void FlickerStepConsts::prepare(const FlickerPlan& plan, double dt) {
  a.resize(plan.poles());
  s.resize(plan.poles());
  for (std::size_t k = 0; k < plan.poles(); ++k) {
    a[k] = std::exp(-dt / plan.tau[k]);
    s[k] = std::sqrt(plan.sigma2 * (1.0 - a[k] * a[k]));
  }
}

FlickerNoise::FlickerNoise(double kf, double f_lo, double f_hi, Rng rng,
                           int poles_per_decade)
    : rng_(rng) {
  require(kf >= 0.0, "FlickerNoise: kf must be non-negative");
  require(f_hi > f_lo && f_lo > 0.0, "FlickerNoise: need 0 < f_lo < f_hi");
  require(poles_per_decade >= 1, "FlickerNoise: need >= 1 pole per decade");

  // Sum of OU processes with corner frequencies log-spaced at ratio
  // r = 10^(1/poles_per_decade). With per-pole stationary variance
  // sigma2 = kf * ln(r), the summed one-sided PSD approximates kf/f
  // across [f_lo, f_hi] (see analytic_psd for the exact sum).
  const double ratio = std::pow(10.0, 1.0 / poles_per_decade);
  const double sigma2 = kf * std::log(ratio);
  for (double fc = f_lo; fc <= f_hi * (1.0 + 1e-12); fc *= ratio) {
    Pole p;
    p.tau = 1.0 / (2.0 * constants::kPi * fc);
    p.sigma2 = sigma2;
    // Start each pole in its stationary distribution so the process has no
    // warm-up transient.
    p.state = rng_.normal(0.0, std::sqrt(sigma2));
    poles_.push_back(p);
  }
}

double FlickerNoise::sample(double dt) {
  double sum = 0.0;
  for (auto& p : poles_) {
    const double a = std::exp(-dt / p.tau);
    p.state = p.state * a + rng_.normal(0.0, std::sqrt(p.sigma2 * (1.0 - a * a)));
    sum += p.state;
  }
  return sum;
}

double FlickerNoise::analytic_psd(double f) const {
  // One-sided PSD of an OU process: S(f) = 4 sigma2 tau / (1 + (2 pi f tau)^2)
  double s = 0.0;
  for (const auto& p : poles_) {
    const double w = 2.0 * constants::kPi * f * p.tau;
    s += 4.0 * p.sigma2 * p.tau / (1.0 + w * w);
  }
  return s;
}

void CompositeNoise::add_white(double psd_one_sided, Rng rng) {
  white_.emplace_back(psd_one_sided, rng);
}

void CompositeNoise::add_flicker(double kf, double f_lo, double f_hi, Rng rng) {
  flicker_.emplace_back(kf, f_lo, f_hi, rng);
}

double CompositeNoise::sample(double dt) {
  double sum = 0.0;
  for (auto& s : white_) sum += s.sample(dt);
  for (auto& s : flicker_) sum += s.sample(dt);
  return sum;
}

}  // namespace biosense::noise
