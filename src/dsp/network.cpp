#include "dsp/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biosense::dsp {

std::vector<double> population_rate(
    const std::vector<std::vector<double>>& trains, double duration,
    double bin_width) {
  require(duration > 0.0 && bin_width > 0.0,
          "population_rate: invalid window");
  const auto n_bins = static_cast<std::size_t>(std::ceil(duration / bin_width));
  std::vector<double> rate(n_bins, 0.0);
  for (const auto& train : trains) {
    for (double t : train) {
      if (t < 0.0 || t >= duration) continue;
      rate[static_cast<std::size_t>(t / bin_width)] += 1.0;
    }
  }
  for (auto& r : rate) r /= bin_width;  // counts -> Hz (summed over trains)
  return rate;
}

double synchrony_index(const std::vector<double>& a,
                       const std::vector<double>& b, double tol) {
  if (a.empty() || b.empty()) return 0.0;
  auto coincident = [&](const std::vector<double>& x,
                        const std::vector<double>& y) {
    std::size_t n = 0;
    for (double t : x) {
      auto it = std::lower_bound(y.begin(), y.end(), t - tol);
      if (it != y.end() && *it <= t + tol) ++n;
    }
    return static_cast<double>(n) / static_cast<double>(x.size());
  };
  return 0.5 * (coincident(a, b) + coincident(b, a));
}

WavefrontFit fit_wavefront(const std::vector<double>& xs,
                           const std::vector<double>& ys,
                           const std::vector<double>& arrival_times) {
  WavefrontFit out;
  const std::size_t n = xs.size();
  if (n < 3 || ys.size() != n || arrival_times.size() != n) return out;

  // Normal equations for t = t0 + sx x + sy y.
  double sx = 0, sy = 0, st = 0, sxx = 0, syy = 0, sxy = 0, sxt = 0, syt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    st += arrival_times[i];
    sxx += xs[i] * xs[i];
    syy += ys[i] * ys[i];
    sxy += xs[i] * ys[i];
    sxt += xs[i] * arrival_times[i];
    syt += ys[i] * arrival_times[i];
  }
  const double nn = static_cast<double>(n);
  // 3x3 system [nn sx sy; sx sxx sxy; sy sxy syy] [t0 a b] = [st sxt syt].
  const double a11 = nn, a12 = sx, a13 = sy;
  const double a22 = sxx, a23 = sxy, a33 = syy;
  const double det = a11 * (a22 * a33 - a23 * a23) -
                     a12 * (a12 * a33 - a23 * a13) +
                     a13 * (a12 * a23 - a22 * a13);
  if (std::abs(det) < 1e-30) return out;
  // Cramer's rule.
  const double d1 = st * (a22 * a33 - a23 * a23) -
                    a12 * (sxt * a33 - a23 * syt) +
                    a13 * (sxt * a23 - a22 * syt);
  const double d2 = a11 * (sxt * a33 - a23 * syt) -
                    st * (a12 * a33 - a23 * a13) +
                    a13 * (a12 * syt - sxt * a13);
  const double d3 = a11 * (a22 * syt - sxt * a23) -
                    a12 * (a12 * syt - sxt * a13) +
                    st * (a12 * a23 - a22 * a13);
  const double t0 = d1 / det;
  const double slow_x = d2 / det;
  const double slow_y = d3 / det;
  const double slowness = std::hypot(slow_x, slow_y);
  if (slowness <= 0.0) return out;

  out.speed = 1.0 / slowness;
  out.direction_x = slow_x / slowness;
  out.direction_y = slow_y / slowness;
  double res2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = t0 + slow_x * xs[i] + slow_y * ys[i];
    const double r = arrival_times[i] - pred;
    res2 += r * r;
  }
  out.rms_residual = std::sqrt(res2 / nn);
  return out;
}

}  // namespace biosense::dsp
