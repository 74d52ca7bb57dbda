// Numeric helpers shared across modules: bisection root finding,
// branch-free rounding and the lane-loop pragma.
#pragma once

#include <cstdint>
#include <functional>

// Marks a loop over SIMD lanes that carry no dependence from one lane to
// the next; saying so lets the compiler vectorize it without runtime alias
// checks. ci.sh's `vectorized` gate holds every loop it marks in
// neurochip/array.cpp and circuit/mosfet.{hpp,cpp} to GCC's vectorizer
// report, in each x86-64 level's entry of the frame kernel.
#if defined(__clang__)
#define BIOSENSE_LANE_LOOP _Pragma("clang loop vectorize(assume_safety)")
#else
#define BIOSENSE_LANE_LOOP _Pragma("GCC ivdep")
#endif

namespace biosense {

/// std::lround(x) as a double, for |x| < 2^31 (NaN excluded: the int
/// conversion is undefined for it): truncate, then step one away from
/// zero when the dropped fraction is at least one half (x - trunc(x) is
/// exact). Compares on doubles instead of a libm call, so a loop over
/// lanes vectorizes.
inline double round_half_away(double x) {
  const double t = static_cast<double>(static_cast<std::int32_t>(x));
  const double frac = x - t;
  const double up = frac >= 0.5 ? 1.0 : 0.0;
  const double down = frac <= -0.5 ? 1.0 : 0.0;
  return (t + up) - down;
}

/// Bisection root find of f on [lo, hi]; requires a sign change. Returns the
/// midpoint after `iters` halvings (53 iterations reach double precision),
/// or sooner, once the midpoint rounds onto an end: from there every
/// halving repeats the last, so the result is the same bits.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              int iters = 60);

}  // namespace biosense
