// Izhikevich spiking neuron model.
//
// For the 128x128-pixel culture simulations the full Hodgkin-Huxley model
// per neuron is unnecessarily expensive; the Izhikevich model reproduces
// the spike *timing* statistics of cortical cell types at a fraction of
// the cost. Spike waveforms as seen by the chip are then synthesized from
// a junction template (see junction.hpp) triggered at these spike times.
//
//   dv/dt = 0.04 v^2 + 5 v + 140 - u + I
//   du/dt = a (b v - u);  v >= 30 mV  =>  v <- c, u <- u + d
#pragma once

namespace biosense::neuro {

struct IzhikevichParams {
  double a = 0.02;
  double b = 0.2;
  double c = -65.0;
  double d = 8.0;
};

class Izhikevich {
 public:
  explicit Izhikevich(IzhikevichParams params = {});

  /// Advances by dt seconds with input current `i` (model units, ~10 for
  /// sustained firing). Returns true if the neuron fired this step.
  bool step(double i, double dt_s);

  double v_mv() const { return v_; }
  void reset();

 private:
  IzhikevichParams params_;
  double v_;
  double u_;
};

}  // namespace biosense::neuro
