// Digital filters: biquad sections and their cascade.
//
// The neural recording pipeline band-passes pixel traces before spike
// detection (action potential energy is concentrated in ~0.1..3 kHz at the
// chip's 2 kHz frame rate per pixel, plus faster content on dedicated
// high-rate channels); `detect_spikes` builds its own second-order
// high-pass + low-pass cascade from these sections.
#pragma once

#include <vector>

namespace biosense::dsp {

/// Direct-form-II-transposed biquad section (RBJ cookbook designs).
class Biquad {
 public:
  /// Coefficients normalized so a0 = 1.
  Biquad(double b0, double b1, double b2, double a1, double a2);

  static Biquad lowpass(double f_cut, double fs, double q = 0.7071);
  static Biquad highpass(double f_cut, double fs, double q = 0.7071);

  double process(double x);

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double z1_ = 0.0, z2_ = 0.0;
};

/// Cascade of biquads, applied in order.
class BiquadCascade {
 public:
  explicit BiquadCascade(std::vector<Biquad> sections)
      : sections_(std::move(sections)) {}

  double process(double x);

 private:
  std::vector<Biquad> sections_;
};

}  // namespace biosense::dsp
