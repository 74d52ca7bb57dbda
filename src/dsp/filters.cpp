#include "dsp/filters.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

namespace {

void check_freq(double f, double fs) {
  require(f > 0.0 && f < fs / 2.0,
          "Biquad: cutoff must be in (0, Nyquist)");
}

}  // namespace

Biquad Biquad::lowpass(double f_cut, double fs, double q) {
  check_freq(f_cut, fs);
  const double w0 = 2.0 * constants::kPi * f_cut / fs;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
                -2.0 * cw / a0, (1.0 - alpha) / a0);
}

Biquad Biquad::highpass(double f_cut, double fs, double q) {
  check_freq(f_cut, fs);
  const double w0 = 2.0 * constants::kPi * f_cut / fs;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 + cw) / 2.0 / a0, -(1.0 + cw) / a0, (1.0 + cw) / 2.0 / a0,
                -2.0 * cw / a0, (1.0 - alpha) / a0);
}

double Biquad::process(double x) {
  const double y = b0_ * x + z1_;
  z1_ = b1_ * x - a1_ * y + z2_;
  z2_ = b2_ * x - a2_ * y;
  return y;
}

double BiquadCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

}  // namespace biosense::dsp
