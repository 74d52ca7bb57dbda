// Counter-based normal draws for the neural pixel engine (DESIGN.md §16).
//
// Every draw is a pure function of (key, pixel, step, j). No generator
// state exists to carry, fork or serialize, so a pixel's noise has the
// same bits whichever worker evaluates it, in whatever batch, and after
// any checkpoint/resume. The generator is the SplitMix64 finalizer over a
// counter (Salmon et al., SC'11, "Parallel random numbers: as easy as
// 1, 2, 3"):
//
//   base   = mix64(mix64(key ^ pixel * G) + step * G')
//   draw j = mix64(base + (j + 1) * G)
//
// Normals come from Box-Muller with both outputs used. log and sincos are
// branch-free polynomials (the fdlibm kernels) around integer bit
// operations, so a loop over a batch of pairs vectorizes on baseline
// x86-64 and every lane performs exactly the scalar function's IEEE
// operations: a batch of 8 and a run of 1 give the same bits. The exp and
// log1p kernels below are built the same way; the EKV transistor model
// (circuit/mosfet.hpp) evaluates its F from them, so noise and circuit
// share one set and neither calls libm per pixel.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace biosense::noise {

inline constexpr std::uint64_t kPixelGamma = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kStepGamma = 0xd1b54a32d192ed03ULL;

/// Counter base of one (key, pixel, step).
inline std::uint64_t counter_base(std::uint64_t key, std::uint64_t pixel,
                                  std::uint64_t step) {
  return mix64(mix64(key ^ (pixel * kPixelGamma)) + step * kStepGamma);
}

/// Draw j of a counter base.
inline std::uint64_t counter_draw(std::uint64_t base, std::uint64_t j) {
  return mix64(base + (j + 1) * kPixelGamma);
}

/// Uniform in the open interval (0, 1) from a draw's top 52 bits k:
/// (k + 1/2) * 2^-52, computed exactly (no rejection, no int->double
/// conversion, which baseline x86-64 cannot vectorize for 64-bit ints).
inline double open_uniform(std::uint64_t x) {
  const double one_plus_k =
      std::bit_cast<double>((x >> 12) | 0x3ff0000000000000ULL);
  return (one_plus_k - 1.0) + 0x1.0p-53;
}

namespace detail {

/// ln(u) + c for a normal u > 0 and a correction c far below ulp(ln u):
/// fdlibm's e_log kernel without its special cases, c entering beside
/// the low part of k ln 2 as in fdlibm's log1p.
inline double log_kernel(double u, double c) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  // u = 2^k * m with m in [sqrt(2)/2, sqrt(2)), split with integer
  // operations only: SSE2 has no 64-bit compare and GCC does not
  // if-convert a select under trapping math, so the mantissa's carry into
  // bit 52 past sqrt(2)'s mantissa is the "halve m, bump k" flag.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::uint64_t mant = bits & 0x000fffffffffffffULL;
  const std::uint64_t big = (mant + 0x95f619980c433ULL) & 0x0010000000000000ULL;
  const double m =
      std::bit_cast<double>(mant | (0x3ff0000000000000ULL ^ big));
  // The biased exponent, made an exact double by the 2^52 trick.
  const double k =
      std::bit_cast<double>(((bits >> 52) + (big >> 52)) |
                            0x4330000000000000ULL) -
      0x1.0p52 - 1023.0;
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi -
         ((hfsq - (s * (hfsq + (t2 + t1)) + (k * kLn2Lo + c))) - f);
}

}  // namespace detail

/// Natural log of u in (0, 1). Relative error below 5e-16; the kernel
/// holds that bound for any normal u (test_noise also checks [1, 2], the
/// range log1p_nonnegative hands it). k ln 2's low part is never -0, so
/// adding the zero correction changes no bit.
inline double log_open_unit(double u) { return detail::log_kernel(u, 0.0); }

/// ln(1 + y) for y >= 0 with 1 + y finite, fdlibm's log1p reduction: the
/// log kernel at u = 1 + y, plus the rounding error of that sum, which is
/// exact (y - (u - 1)), divided by u. A y below 2^-53 returns y exactly.
inline double log1p_nonnegative(double y) {
  const double u = 1.0 + y;
  return detail::log_kernel(u, (y - (u - 1.0)) / u);
}

/// e^x for x in [-708, 0], fdlibm's e_exp: x = k ln 2 + r with
/// |r| <= ln 2 / 2, its rational approximation of e^r, and 2^k applied by
/// writing k into an exponent field. k is rounded with the 2^52 trick and
/// read back from the sum's low bits, since baseline x86-64 cannot
/// vectorize a double-to-int64 conversion. Below -708, 2^k leaves the
/// normal range and the result is garbage: callers clamp. Error below one
/// ulp.
inline double exp_nonpositive(double x) {
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  constexpr double kRound = 0x1.8p52;  // t + kRound rounds t to an integer
  const double shifted = x * kInvLn2 + kRound;
  const double k = shifted - kRound;
  // kLn2Hi's low 21 bits are zero, so k * kLn2Hi and hi are exact.
  const double hi = x - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // shifted's low 12 bits hold k mod 2^12 (its integer part sits in a
  // 2^52-wide binade), so k + 1023 shifted into place is 2^k's exponent.
  const double scale = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(shifted) + 1023) << 52);
  return y * scale;
}

/// sin and cos of 2*pi*u for u in (0, 1). The angle is reduced exactly to
/// |x| <= pi/4 around the nearest quarter turn q, fdlibm's kernel
/// polynomials give sin x and cos x, and q's swap and signs are applied as
/// bit operations. Absolute error below 2e-15.
inline void sincos_turn(double u, double& sin_out, double& cos_out) {
  constexpr double kHalfPi = 1.57079632679489661923;
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  constexpr double kRound = 0x1.8p52;  // t + kRound rounds t to an integer
  const double t = 4.0 * u;             // quarter turns, exact
  const double shifted = t + kRound;
  const std::uint64_t q = std::bit_cast<std::uint64_t>(shifted);
  const double x = (t - (shifted - kRound)) * kHalfPi;  // t - q is exact
  const double z = x * x;
  const double sr = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const double sin_x = x + (z * x) * (kS1 + z * sr);
  const double cr =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double cos_x = 1.0 - (0.5 * z - z * cr);
  // Quadrant q: odd swaps sin and cos, sin is negative in q = 2, 3 and
  // cos in q = 1, 2 (q's low bits; q = 4 is q = 0).
  const std::uint64_t swap = 0 - (q & 1);
  const std::uint64_t sb = std::bit_cast<std::uint64_t>(sin_x);
  const std::uint64_t cb = std::bit_cast<std::uint64_t>(cos_x);
  sin_out = std::bit_cast<double>(((sb & ~swap) | (cb & swap)) ^
                                  ((q & 2) << 62));
  cos_out = std::bit_cast<double>(((cb & ~swap) | (sb & swap)) ^
                                  (((q + 1) & 2) << 62));
}

/// Box-Muller: two independent standard normals from two open uniforms.
inline void box_muller(double u1, double u2, double& z0, double& z1) {
  const double r = std::sqrt(-2.0 * log_open_unit(u1));
  double s = 0.0;
  double c = 0.0;
  sincos_turn(u2, s, c);
  z0 = r * c;
  z1 = r * s;
}

/// The 2 * pairs normals of one (key, pixel, step), scalar: normal 2p is
/// pair p's cosine output and 2p + 1 its sine output, pair p using draws
/// 2p and 2p + 1. The batched pixel kernel must reproduce it bit for bit.
inline void step_normals(std::uint64_t key, std::uint64_t pixel,
                         std::uint64_t step, int pairs, double* z) {
  const std::uint64_t base = counter_base(key, pixel, step);
  for (int p = 0; p < pairs; ++p) {
    const auto j = static_cast<std::uint64_t>(2 * p);
    box_muller(open_uniform(counter_draw(base, j)),
               open_uniform(counter_draw(base, j + 1)), z[2 * p],
               z[2 * p + 1]);
  }
}

}  // namespace biosense::noise
