#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/mosfet.hpp"
#include "common/rng.hpp"
#include "noise/mismatch.hpp"

namespace biosense {
namespace {

TEST(Bisect, FindsRootOfCubic) {
  const double root = bisect([](double x) { return x * x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::cbrt(2.0), 1e-12);
}

TEST(Bisect, WorksWithDecreasingFunction) {
  const double root = bisect([](double x) { return 1.0 - x; }, 0.0, 5.0);
  EXPECT_NEAR(root, 1.0, 1e-12);
}

TEST(Bisect, ReturnsEndpointRoot) {
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
}

/// bisect() as it was before the fixed-point stop: every one of `iters`
/// halvings taken.
double full_bisect(const std::function<double(double)>& f, double lo,
                   double hi, int iters) {
  double flo = f(lo);
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

TEST(Bisect, FixedPointStopKeepsEveryBit) {
  // Mosfet::vgs_for_current's solve (bracket [-10, 15], 80 halvings) for
  // mismatched NMOS and PMOS devices across pA..100 uA: bisect() stops
  // once its midpoint rounds onto an end and must return the bits of all
  // 80 halvings, in well under 80.
  noise::MismatchSampler mismatch(noise::PelgromCoefficients{}, Rng(7));
  circuit::MosfetParams pmos;
  pmos.type = circuit::MosType::kPmos;
  pmos.kp = 40e-6;
  int most_evals = 0;
  for (const circuit::MosfetParams& params :
       {circuit::MosfetParams{}, pmos}) {
    const bool n_frame = params.type == circuit::MosType::kNmos;
    const double vs = n_frame ? 0.0 : 5.0;
    const double vd = n_frame ? 2.0 : 0.0;
    for (int k = 0; k < 500; ++k) {
      const circuit::Mosfet dev(params, mismatch.sample(params.w, params.l));
      const double id = 1e-12 * std::pow(1e8, k / 499.0);
      int evals = 0;
      const auto f = [&](double vg) {
        ++evals;
        return dev.drain_current(vg, vd, vs) - id;
      };
      const double root = bisect(f, -10.0, 15.0, 80);
      most_evals = std::max(most_evals, evals);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(root),
                std::bit_cast<std::uint64_t>(full_bisect(f, -10.0, 15.0, 80)))
          << "id " << id;
      EXPECT_EQ(root, dev.vgs_for_current(id, vd, vs));
    }
  }
  EXPECT_LT(most_evals, 2 + 70);
}

TEST(Bisect, ThrowsWithoutSignChange) {
  EXPECT_THROW(bisect([](double) { return 1.0; }, 0.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace biosense
