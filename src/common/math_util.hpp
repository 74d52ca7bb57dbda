// Numeric helpers shared across modules: bisection root finding.
#pragma once

#include <functional>

namespace biosense {

/// Bisection root find of f on [lo, hi]; requires a sign change. Returns the
/// midpoint after `iters` halvings (53 iterations reach double precision).
double bisect(const std::function<double(double)>& f, double lo, double hi,
              int iters = 60);

}  // namespace biosense
