#include "neuro/hodgkin_huxley.hpp"

#include <cmath>

#include "common/error.hpp"

namespace biosense::neuro {

namespace {

// HH rate constants (1/ms) as functions of membrane voltage in mV.
double alpha_m(double v) {
  const double x = v + 40.0;
  if (std::abs(x) < 1e-7) return 1.0;  // limit of the removable singularity
  return 0.1 * x / (1.0 - std::exp(-x / 10.0));
}
double beta_m(double v) { return 4.0 * std::exp(-(v + 65.0) / 18.0); }

double alpha_h(double v) { return 0.07 * std::exp(-(v + 65.0) / 20.0); }
double beta_h(double v) { return 1.0 / (1.0 + std::exp(-(v + 35.0) / 10.0)); }

double alpha_n(double v) {
  const double x = v + 55.0;
  if (std::abs(x) < 1e-7) return 0.1;
  return 0.01 * x / (1.0 - std::exp(-x / 10.0));
}
double beta_n(double v) { return 0.125 * std::exp(-(v + 65.0) / 80.0); }

// Exponential-Euler update of a gate with rates a, b (1/ms) over dt (ms).
double gate_step(double x, double a, double b, double dt) {
  const double tau = 1.0 / (a + b);
  const double x_inf = a * tau;
  return x_inf + (x - x_inf) * std::exp(-dt / tau);
}

double gate_inf(double a, double b) { return a / (a + b); }

// Unit conversions: model units <-> SI.
// current density: 1 uA/cm^2 = 1e-2 A/m^2
constexpr double kUaCm2PerAm2 = 100.0;  // A/m^2 -> uA/cm^2 multiply by 100

}  // namespace

HodgkinHuxley::HodgkinHuxley(HhParams params) : params_(params) {
  require(params.c_m > 0.0, "HodgkinHuxley: c_m must be positive");
  reset();
}

void HodgkinHuxley::reset() {
  v_ = params_.v_rest;
  m_ = gate_inf(alpha_m(v_), beta_m(v_));
  h_ = gate_inf(alpha_h(v_), beta_h(v_));
  n_ = gate_inf(alpha_n(v_), beta_n(v_));
  currents_ = {};
}

void HodgkinHuxley::step(double i_stim_si, double dt_s) {
  require(dt_s > 0.0, "HodgkinHuxley: dt must be positive");
  const double dt = dt_s * 1e3;                       // ms
  const double i_stim = i_stim_si * kUaCm2PerAm2;     // uA/cm^2

  // Gates first (exponential Euler), then the voltage (forward Euler on the
  // current balance) — the standard splitting, stable at dt <= 25 us.
  m_ = gate_step(m_, alpha_m(v_), beta_m(v_), dt);
  h_ = gate_step(h_, alpha_h(v_), beta_h(v_), dt);
  n_ = gate_step(n_, alpha_n(v_), beta_n(v_), dt);

  const double i_na = params_.g_na * m_ * m_ * m_ * h_ * (v_ - params_.e_na);
  const double i_k = params_.g_k * n_ * n_ * n_ * n_ * (v_ - params_.e_k);
  const double i_l = params_.g_l * (v_ - params_.e_l);

  const double dv_dt = (i_stim - i_na - i_k - i_l) / params_.c_m;  // mV/ms
  v_ += dv_dt * dt;

  // Convert current densities to SI (uA/cm^2 -> A/m^2: divide by 100).
  currents_.sodium = i_na / kUaCm2PerAm2;
  currents_.potassium = i_k / kUaCm2PerAm2;
  currents_.leak = i_l / kUaCm2PerAm2;
  // Capacitive density: c_m dV/dt, with c_m in uF/cm^2 = 1e-2 F/m^2 and
  // dV/dt in mV/ms = V/s.
  currents_.capacitive = params_.c_m * 1e-2 * dv_dt;
}

}  // namespace biosense::neuro
