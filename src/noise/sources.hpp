// Spectral shapes of the neural pixel's input-referred noise.
//
// White noise is band-limited to the Nyquist frequency of the sampling
// step (variance = one-sided PSD * 1/(2 dt)), the discrete-time equivalent
// of a sampled continuous system. Flicker (1/f) noise is a sum of
// Ornstein-Uhlenbeck poles, one per decade. `PixelBank` draws the normals
// that drive both from the counter generator in noise/counter.hpp; this
// header holds only the frozen plan and its per-dt step constants.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

namespace biosense::noise {

/// Discrete-step sigma of band-limited white noise with the given one-sided
/// PSD: variance = S * f_s / 2 = S / (2 dt).
inline double white_step_sigma(double psd_one_sided, double dt) {
  return std::sqrt(psd_one_sided / (2.0 * dt));
}

/// Flicker poles: one per decade at 1 Hz, 10 Hz, ..., 100 kHz.
inline constexpr std::size_t kFlickerPoles = 6;

/// 1/f noise S(f) = kf / f synthesized as kFlickerPoles OU processes with
/// corner frequencies f_k = 10^k Hz. With per-pole stationary variance
/// sigma2 = kf * ln(10) the summed PSD stays within -0.27/+0.23 dB of kf/f
/// over 10 Hz - 10 kHz (analytic_psd gives the exact sum).
struct FlickerPlan {
  std::array<double, kFlickerPoles> tau{};  // OU time constant per pole
  double sigma2 = 0.0;                      // stationary variance per pole

  FlickerPlan() = default;
  explicit FlickerPlan(double kf);

  /// Analytic one-sided PSD of the synthesized process at frequency f.
  double analytic_psd(double f) const;
};

/// Per-dt step constants of a FlickerPlan, hoisted once per frame: each
/// pole's decay a = exp(-dt/tau) and innovation sigma sqrt(sigma2 (1-a^2)),
/// plus dt/tau for fast-forwarding a pole over several steps.
struct FlickerStepConsts {
  std::array<double, kFlickerPoles> a{};
  std::array<double, kFlickerPoles> s{};
  std::array<double, kFlickerPoles> rate{};  // dt / tau

  void prepare(const FlickerPlan& plan, double dt);
};

}  // namespace biosense::noise
