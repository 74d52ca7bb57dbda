#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace biosense {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.max_abs_residual, 0.0, 1e-12);
}

TEST(LinearFit, NoisyLineHighR2) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0 + rng.normal(0.0, 0.5));
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_NEAR(fit.intercept, -7.0, 0.5);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LinearFit, RejectsDegenerateInput) {
  std::vector<double> one{1.0};
  EXPECT_THROW(linear_fit(one, one), std::invalid_argument);
  std::vector<double> x{1.0, 2.0}, y{1.0};
  EXPECT_THROW(linear_fit(x, y), std::invalid_argument);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Percentile, UnsortedInput) {
  std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  std::vector<double> v;
  EXPECT_THROW(percentile(v, 50), std::invalid_argument);
}

TEST(MadSigma, MatchesNormalSigma) {
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mad_sigma(v), 3.0, 0.1);
}

TEST(MadSigma, RobustToOutliers) {
  Rng rng(10);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.normal(0.0, 1.0));
  // 1% gross outliers shouldn't move the estimate much.
  for (int i = 0; i < 100; ++i) v.push_back(1000.0);
  EXPECT_NEAR(mad_sigma(v), 1.0, 0.1);
}

TEST(SpanHelpers, MeanAndStddev) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
}

}  // namespace
}  // namespace biosense
