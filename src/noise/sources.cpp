#include "noise/sources.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::noise {

FlickerPlan::FlickerPlan(double kf) {
  require(kf >= 0.0, "FlickerPlan: kf must be non-negative");
  // Corner frequencies log-spaced at ratio r = 10: with sigma2 = kf ln(r)
  // per pole the sum approximates kf / f between the outer corners.
  sigma2 = kf * std::log(10.0);
  double fc = 1.0;
  for (double& t : tau) {
    t = 1.0 / (2.0 * constants::kPi * fc);
    fc *= 10.0;
  }
}

double FlickerPlan::analytic_psd(double f) const {
  // One-sided PSD of an OU process: S(f) = 4 sigma2 tau / (1 + (2 pi f tau)^2)
  double s = 0.0;
  for (const double t : tau) {
    const double w = 2.0 * constants::kPi * f * t;
    s += 4.0 * sigma2 * t / (1.0 + w * w);
  }
  return s;
}

void FlickerStepConsts::prepare(const FlickerPlan& plan, double dt) {
  for (std::size_t k = 0; k < kFlickerPoles; ++k) {
    rate[k] = dt / plan.tau[k];
    a[k] = std::exp(-rate[k]);
    s[k] = std::sqrt(plan.sigma2 * (1.0 - a[k] * a[k]));
  }
}

}  // namespace biosense::noise
