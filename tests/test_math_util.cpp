#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

TEST(Bisect, ThrowsWithoutSignChange) {
  EXPECT_THROW(bisect([](double) { return 1.0; }, 0.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace biosense
