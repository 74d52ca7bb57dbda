#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace biosense {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("linear_fit: need >= 2 equally sized samples");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {
    fit.slope = 0.0;
    fit.intercept = sy / n;
  } else {
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;
  }
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += r * r;
    fit.max_abs_residual = std::max(fit.max_abs_residual, std::abs(r));
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.mean();
}

double stddev(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.stddev();
}

double mad_sigma(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> work(values.begin(), values.end());
  std::nth_element(work.begin(), work.begin() + work.size() / 2, work.end());
  const double med = work[work.size() / 2];
  for (auto& v : work) v = std::abs(v - med);
  std::nth_element(work.begin(), work.begin() + work.size() / 2, work.end());
  return 1.4826 * work[work.size() / 2];
}

}  // namespace biosense
