#include "dna/hybridization.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biosense::dna {

SpotKinetics::SpotKinetics(HybridizationParams params,
                           std::vector<BindingSpecies> species)
    : params_(params), species_(std::move(species)) {
  require(params_.ka > 0.0, "SpotKinetics: ka must be positive");
  for (const auto& s : species_) {
    require(s.concentration >= 0.0 && s.kd > 0.0 && s.theta >= 0.0,
            "SpotKinetics: invalid species");
  }
}

void SpotKinetics::step(double dt) {
  // Exponential (exact per-species) integrator: during a substep the
  // occupancy of the competing species is frozen, which makes each
  // species' ODE linear and solvable in closed form. Only the coupling
  // between species needs to be resolved by substepping — not the
  // (possibly very stiff) wash-off rate — so weak binders with
  // k_d >> 1/s are handled unconditionally stably.
  double coupling_rate = 0.0;
  for (const auto& s : species_) {
    coupling_rate += params_.ka * s.concentration;
  }
  const int substeps = std::min(
      100000,
      std::max(1, static_cast<int>(std::ceil(dt * coupling_rate * 5.0))));
  const double h = dt / substeps;

  for (int n = 0; n < substeps; ++n) {
    double total = 0.0;
    for (const auto& s : species_) total += s.theta;
    for (auto& s : species_) {
      // Freeze the occupancy of the *other* species; then
      // d theta/dt = a - b theta with
      //   a = ka C (1 - S_other),  b = ka (C + kd),
      // solved exactly over the substep.
      const double s_other = std::max(0.0, total - s.theta);
      const double a = params_.ka * s.concentration * (1.0 - s_other);
      const double b = params_.ka * (s.concentration + s.kd);
      const double eq = a / b;  // b > 0 because kd > 0
      s.theta = std::clamp(eq + (s.theta - eq) * std::exp(-b * h), 0.0, 1.0);
    }
  }
}

void SpotKinetics::hybridize(double duration, double dt) {
  if (washing_) {
    for (std::size_t i = 0; i < species_.size(); ++i) {
      species_[i].concentration = saved_conc_[i];
    }
    washing_ = false;
  }
  for (double t = 0.0; t < duration; t += dt) {
    step(std::min(dt, duration - t));
  }
}

void SpotKinetics::wash(double duration, double dt) {
  if (!washing_) {
    saved_conc_.clear();
    for (auto& s : species_) {
      saved_conc_.push_back(s.concentration);
      s.concentration = 0.0;
    }
    washing_ = true;
  }
  for (double t = 0.0; t < duration; t += dt) {
    step(std::min(dt, duration - t));
  }
}

double SpotKinetics::total_theta() const {
  double t = 0.0;
  for (const auto& s : species_) t += s.theta;
  return t;
}

}  // namespace biosense::dna
