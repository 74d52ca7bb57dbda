// Network-level analysis of multi-site recordings.
//
// The point of recording 16k sites in parallel (rather than a patch
// pipette) is network activity: who fires with whom, when, and how the
// population behaves. First-line measures: binned population rate, a
// pairwise synchrony index and a plane-fit wavefront.
#pragma once

#include <cstddef>
#include <vector>

namespace biosense::dsp {

/// Population firing rate: spike counts of all trains merged into bins of
/// `bin_width` seconds over [0, duration).
std::vector<double> population_rate(
    const std::vector<std::vector<double>>& trains, double duration,
    double bin_width);

/// Zero-lag synchrony index in [0, 1]: fraction of a-spikes with a b-spike
/// within +/-tol, symmetrized.
double synchrony_index(const std::vector<double>& a,
                       const std::vector<double>& b, double tol = 2e-3);

/// Plane-fit wavefront estimator: least-squares fit of arrival time
/// t(x, y) = t0 + sx x + sy y over many sites; the slowness magnitude
/// |(sx, sy)| gives the speed (v = 1/|s|) and its direction the
/// propagation direction. Far more robust than pairwise lags on noisy
/// detections. Requires >= 3 non-collinear sites; returns a negative speed
/// on degeneracy.
struct WavefrontFit {
  double speed = -1.0;        // m/s
  double direction_x = 0.0;   // unit vector of propagation
  double direction_y = 0.0;
  double rms_residual = 0.0;  // s
};

WavefrontFit fit_wavefront(const std::vector<double>& xs,
                           const std::vector<double>& ys,
                           const std::vector<double>& arrival_times);

}  // namespace biosense::dsp
