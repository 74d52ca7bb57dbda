// The counter-based noise engine's statistics and the flicker pole plan.
//
// The normals behind every pixel's white and flicker noise come from
// noise/counter.hpp; these tests hold them to N(0, 1) (moments and a KS
// test over 2^20 draws per key), to independence across steps, pixels and
// the two outputs of a Box-Muller pair, and the polynomial log/sincos to
// libm-grade accuracy. The bank-level checks (white variance, 1/f slope,
// fast-forward, partition invariance) live in test_pixel.
#include "noise/counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "noise/sources.hpp"

namespace biosense::noise {
namespace {

constexpr int kPairs = 4;  // one pixel-step of the engine: 8 normals

/// n normals at `key`: pixel-steps in (pixel, step) order, 8 per step.
std::vector<double> draw(std::uint64_t key, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double z[2 * kPairs];
  for (std::uint64_t pixel = 0; out.size() < n; ++pixel) {
    for (std::uint64_t step = 0; step < 64 && out.size() < n; ++step) {
      step_normals(key, pixel, step, kPairs, z);
      for (double v : z) {
        if (out.size() < n) out.push_back(v);
      }
    }
  }
  return out;
}

double sample_correlation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  RunningStats sx;
  RunningStats sy;
  double sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx.add(x[i]);
    sy.add(y[i]);
    sxy += x[i] * y[i];
  }
  const double n = static_cast<double>(x.size());
  return (sxy / n - sx.mean() * sy.mean()) / (sx.stddev() * sy.stddev());
}

TEST(CounterNormals, UniformsLieInsideTheOpenUnitInterval) {
  EXPECT_GT(open_uniform(0), 0.0);
  EXPECT_LT(open_uniform(~0ULL), 1.0);
  EXPECT_EQ(open_uniform(0), 0x1.0p-53);
  EXPECT_EQ(open_uniform(~0ULL), 1.0 - 0x1.0p-53);
}

TEST(CounterNormals, MomentsAndKsMatchStandardNormal) {
  // 2^20 draws per key. Bounds are ~5 standard errors for the moments;
  // the KS bound is the 1 % critical value 1.628 / sqrt(n).
  const std::size_t n = std::size_t{1} << 20;
  for (std::uint64_t key : {1ULL, 0x5eedULL, 0xdeadbeefcafef00dULL}) {
    std::vector<double> z = draw(key, n);
    double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (double v : z) {
      m1 += v;
      m2 += v * v;
      m3 += v * v * v;
      m4 += v * v * v * v;
    }
    const double dn = static_cast<double>(n);
    m1 /= dn;
    m2 /= dn;
    m3 /= dn;
    m4 /= dn;
    EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(dn)) << "key " << key;
    EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / dn)) << "key " << key;
    EXPECT_NEAR(m3, 0.0, 5.0 * std::sqrt(15.0 / dn)) << "key " << key;
    EXPECT_NEAR(m4, 3.0, 5.0 * std::sqrt(96.0 / dn)) << "key " << key;

    std::sort(z.begin(), z.end());
    double d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
      d = std::max({d, cdf - static_cast<double>(i) / dn,
                    static_cast<double>(i + 1) / dn - cdf});
    }
    EXPECT_LT(d, 1.628 / std::sqrt(dn)) << "key " << key;
  }
}

TEST(CounterNormals, StepsPixelsAndPairHalvesAreUncorrelated) {
  // Lag-1 in step, neighbouring pixels at one step, and the cosine/sine
  // outputs of one pair: |r| within 5 standard errors of 0.
  const std::uint64_t key = 42;
  const std::size_t n = std::size_t{1} << 18;
  std::vector<double> a, lag1, nbr, pair_sin;
  a.reserve(n);
  lag1.reserve(n);
  nbr.reserve(n);
  pair_sin.reserve(n);
  double z[2 * kPairs];
  double z_next[2 * kPairs];
  double z_nbr[2 * kPairs];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pixel = i / 256;
    const std::uint64_t step = i % 256;
    step_normals(key, pixel, step, kPairs, z);
    step_normals(key, pixel, step + 1, kPairs, z_next);
    step_normals(key, pixel + 1, step, kPairs, z_nbr);
    a.push_back(z[0]);
    lag1.push_back(z_next[0]);
    nbr.push_back(z_nbr[0]);
    pair_sin.push_back(z[1]);
  }
  const double bound = 5.0 / std::sqrt(static_cast<double>(n));
  EXPECT_LT(std::abs(sample_correlation(a, lag1)), bound);
  EXPECT_LT(std::abs(sample_correlation(a, nbr)), bound);
  EXPECT_LT(std::abs(sample_correlation(a, pair_sin)), bound);
}

TEST(CounterNormals, PolynomialLogAndSincosMatchLibm) {
  // Against long-double libm: log to 5e-16 relative, sin/cos of 2 pi u to
  // 1e-15 absolute, over a million draws plus the interval's ends.
  std::vector<double> us = {open_uniform(0), open_uniform(~0ULL), 0.125,
                            0.25, 0.5, 0.75, 1.0 / 3.0};
  for (std::uint64_t i = 0; i < 1000000; ++i) {
    us.push_back(open_uniform(counter_draw(counter_base(9, i, 0), 0)));
  }
  double worst_log = 0.0;
  double worst_sincos = 0.0;
  for (const double u : us) {
    const long double ref_log = std::log(static_cast<long double>(u));
    worst_log = std::max(
        worst_log,
        static_cast<double>(std::abs((log_open_unit(u) - ref_log) / ref_log)));
    double s = 0.0;
    double c = 0.0;
    sincos_turn(u, s, c);
    const long double theta =
        2.0L * 3.14159265358979323846264338327950288L * u;
    worst_sincos = std::max(
        {worst_sincos, static_cast<double>(std::abs(s - std::sin(theta))),
         static_cast<double>(std::abs(c - std::cos(theta)))});
  }
  EXPECT_LT(worst_log, 5e-16);
  EXPECT_LT(worst_sincos, 1e-15);
}

TEST(CounterNormals, DrawsArePureFunctionsOfTheCounter) {
  // No hidden state: the same (key, pixel, step) gives the same bits in
  // any call order, and any coordinate change gives different draws.
  double first[2 * kPairs];
  double again[2 * kPairs];
  double other[2 * kPairs];
  step_normals(3, 17, 5, kPairs, first);
  step_normals(3, 18, 5, kPairs, other);
  step_normals(3, 17, 5, kPairs, again);
  EXPECT_EQ(0, std::memcmp(first, again, sizeof(first)));
  EXPECT_NE(first[0], other[0]);
  EXPECT_NE(counter_base(3, 17, 5), counter_base(4, 17, 5));
  EXPECT_NE(counter_base(3, 17, 5), counter_base(3, 17, 6));
}

TEST(FlickerPlan, AnalyticPsdWithinHalfDbOfOneOverF) {
  // Six poles, one per decade from 1 Hz to 100 kHz: across the detector's
  // 10 Hz - 10 kHz band the summed OU spectrum stays within +/-0.5 dB of
  // kf / f (the plan's ripple is -0.27/+0.23 dB).
  const double kf = 1e-10;
  const FlickerPlan plan(kf);
  EXPECT_NEAR(1.0 / (2.0 * 3.141592653589793 * plan.tau.front()), 1.0, 1e-9);
  EXPECT_NEAR(1.0 / (2.0 * 3.141592653589793 * plan.tau.back()), 1e5, 1e-4);
  for (int i = 0; i <= 300; ++i) {
    const double f = std::pow(10.0, 1.0 + 3.0 * i / 300.0);
    const double db = 10.0 * std::log10(plan.analytic_psd(f) / (kf / f));
    EXPECT_LT(std::abs(db), 0.5) << "f=" << f;
  }
}

TEST(FlickerPlan, StepConstantsAreStationary) {
  // Each pole's innovation keeps its variance at sigma2: a^2 sigma2 + s^2.
  const FlickerPlan plan(1e-10);
  FlickerStepConsts c;
  c.prepare(plan, 1e-5);
  for (std::size_t k = 0; k < kFlickerPoles; ++k) {
    EXPECT_NEAR(c.a[k] * c.a[k] * plan.sigma2 + c.s[k] * c.s[k], plan.sigma2,
                1e-12 * plan.sigma2);
    EXPECT_DOUBLE_EQ(c.a[k], std::exp(-c.rate[k]));
  }
}

TEST(FlickerPlan, RejectsNegativeCoefficient) {
  EXPECT_THROW(FlickerPlan(-1e-10), ConfigError);
}

}  // namespace
}  // namespace biosense::noise
