// Small statistics toolkit used by tests and benchmark harnesses:
// streaming moments, percentiles, robust sigma and least-squares fits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace biosense {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Result of an ordinary least-squares line fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  /// Maximum absolute deviation of any point from the fitted line.
  double max_abs_residual = 0.0;
};

/// Least-squares fit of y against x. Requires x.size() == y.size() >= 2.
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// p-th percentile (p in [0,100]) by linear interpolation of the sorted
/// sample. The input is copied, not modified.
double percentile(std::span<const double> values, double p);

double mean(std::span<const double> values);
double stddev(std::span<const double> values);

/// Median absolute deviation, scaled to estimate sigma for a normal
/// distribution (factor 1.4826). Robust noise estimator used by the spike
/// detector.
double mad_sigma(std::span<const double> values);

}  // namespace biosense
