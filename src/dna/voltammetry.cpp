#include "dna/voltammetry.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dna {

namespace {

// nF/(RT) helper: inverse volts.
double nf_over_rt(const RedoxCouple& couple, double temp_k) {
  return couple.n_electrons * constants::kFaraday /
         (constants::kGasConstant * temp_k);
}

}  // namespace

double randles_sevcik_peak(const RedoxCouple& couple,
                           const ElectrodeParams& electrode,
                           double scan_rate) {
  require(scan_rate > 0.0, "randles_sevcik_peak: scan rate must be positive");
  const double n = couple.n_electrons;
  const double f_const = constants::kFaraday;
  return 0.4463 * n * f_const * electrode.area * electrode.bulk_conc *
         std::sqrt(n * f_const * scan_rate * couple.diffusion /
                   (constants::kGasConstant * electrode.temp_k));
}

Voltammogram cyclic_voltammetry(const RedoxCouple& couple,
                                const ElectrodeParams& electrode,
                                double e_start, double e_vertex,
                                double scan_rate, std::size_t grid_points) {
  require(scan_rate > 0.0, "cyclic_voltammetry: scan rate must be positive");
  require(grid_points >= 16, "cyclic_voltammetry: need >= 16 grid points");
  require(e_vertex != e_start, "cyclic_voltammetry: zero sweep window");

  const double d = couple.diffusion;
  const double t_total = 2.0 * std::abs(e_vertex - e_start) / scan_rate;
  // Domain: several diffusion lengths; explicit FTCS stability dt<=h^2/2D.
  const double length = 6.0 * std::sqrt(d * t_total);
  const double h = length / static_cast<double>(grid_points);
  const double dt = 0.25 * h * h / d;
  const auto steps = static_cast<std::size_t>(t_total / dt) + 1;

  // Concentrations as fractions of bulk: reduced species starts at 1
  // everywhere, oxidized at 0.
  std::vector<double> cr(grid_points, 1.0), co(grid_points, 0.0);
  std::vector<double> cr_next(grid_points), co_next(grid_points);

  Voltammogram out;
  out.potential.reserve(steps);
  out.current.reserve(steps);
  const double f = nf_over_rt(couple, electrode.temp_k);
  const double sweep_dir = e_vertex > e_start ? 1.0 : -1.0;

  for (std::size_t s = 0; s < steps; ++s) {
    const double t = static_cast<double>(s) * dt;
    // Triangular potential program.
    double e = t <= t_total / 2.0
                   ? e_start + sweep_dir * scan_rate * t
                   : e_vertex - sweep_dir * scan_rate * (t - t_total / 2.0);
    const double eta = e - couple.e0;
    const double k_a = couple.k0 * std::exp((1.0 - couple.alpha) * f * eta);
    const double k_c = couple.k0 * std::exp(-couple.alpha * f * eta);

    // Backward-Euler update of the surface node (robust for reversible
    // kinetics where k0 is effectively infinite on the grid scale).
    const double a = dt * d / (h * h);
    const double b = dt / h;
    const double m11 = 1.0 + a + b * k_a;
    const double m12 = -b * k_c;
    const double m21 = -b * k_a;
    const double m22 = 1.0 + a + b * k_c;
    const double r1 = cr[0] + a * cr[1];
    const double r2 = co[0] + a * co[1];
    const double det = m11 * m22 - m12 * m21;
    const double cr0 = (r1 * m22 - m12 * r2) / det;
    const double co0 = (m11 * r2 - m21 * r1) / det;

    const double rate = (k_a * cr0 - k_c * co0) * electrode.bulk_conc;
    const double current =
        couple.n_electrons * constants::kFaraday * electrode.area * rate;
    out.potential.push_back(e);
    out.current.push_back(current);

    // Explicit interior diffusion.
    cr_next[0] = cr0;
    co_next[0] = co0;
    for (std::size_t i = 1; i + 1 < grid_points; ++i) {
      cr_next[i] = cr[i] + a * (cr[i - 1] - 2.0 * cr[i] + cr[i + 1]);
      co_next[i] = co[i] + a * (co[i - 1] - 2.0 * co[i] + co[i + 1]);
    }
    cr_next[grid_points - 1] = 1.0;  // bulk boundary
    co_next[grid_points - 1] = 0.0;
    cr.swap(cr_next);
    co.swap(co_next);
  }

  // Peak extraction.
  for (std::size_t i = 0; i < out.current.size(); ++i) {
    if (out.current[i] > out.peak_anodic) {
      out.peak_anodic = out.current[i];
      out.e_peak_anodic = out.potential[i];
    }
    if (out.current[i] < out.peak_cathodic) {
      out.peak_cathodic = out.current[i];
      out.e_peak_cathodic = out.potential[i];
    }
  }
  return out;
}

}  // namespace biosense::dna
