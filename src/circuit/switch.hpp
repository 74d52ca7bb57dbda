// Analog MOS switch parameters: on-resistance and charge injection.
//
// Charge injection is the dominant residual error of the neural pixel's
// calibration (Fig. 6): when S1 opens after storing the calibration voltage
// on M1's gate capacitance, half of the switch channel charge
// Q_ch = W L Cox (V_GS,sw - V_T,sw) lands on the storage node, producing a
// systematic pedestal plus a device-dependent random part.
// `neurochip::PixelBank::calibrate` applies it per pixel.
#pragma once

namespace biosense::circuit {

struct SwitchParams {
  double r_on = 5e3;                // on resistance, Ohm
  double channel_charge = 0.8e-15;  // total channel charge at V_DD, C
  double injection_fraction = 0.5;  // fraction dumped into the hold node
  /// Fraction of the *nominal* injected charge cancelled by a half-sized
  /// dummy switch clocked in antiphase (standard practice). The random
  /// mismatch part of the injection is NOT cancelled.
  double compensation = 0.9;
  double injection_sigma = 0.1;     // relative spread of injected charge
  double leak_off = 1e-15;          // off-state leakage, A
};

}  // namespace biosense::circuit
