#include "neuro/izhikevich.hpp"

#include "common/error.hpp"

namespace biosense::neuro {

Izhikevich::Izhikevich(IzhikevichParams params) : params_(params) { reset(); }

void Izhikevich::reset() {
  v_ = -65.0;
  u_ = params_.b * v_;
}

bool Izhikevich::step(double i, double dt_s) {
  require(dt_s > 0.0, "Izhikevich: dt must be positive");
  const double dt = dt_s * 1e3;  // model runs in ms
  // Two half-steps of the voltage equation improve stability (as in the
  // reference implementation).
  for (int k = 0; k < 2; ++k) {
    v_ += 0.5 * dt * (0.04 * v_ * v_ + 5.0 * v_ + 140.0 - u_ + i);
  }
  u_ += dt * params_.a * (params_.b * v_ - u_);
  if (v_ >= 30.0) {
    v_ = params_.c;
    u_ += params_.d;
    return true;
  }
  return false;
}

}  // namespace biosense::neuro
