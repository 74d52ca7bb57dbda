#include "common/math_util.hpp"

#include <stdexcept>

namespace biosense {

double bisect(const std::function<double(double)>& f, double lo, double hi,
              int iters) {
  double flo = f(lo);
  const double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0)) {
    throw std::invalid_argument("bisect: no sign change on interval");
  }
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if ((fm > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace biosense
