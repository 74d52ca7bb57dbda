// Detection-principles comparison (Section 2's survey, quantified).
//
// The paper contrasts optical fluorescence detection [1-3] with electronic
// redox-cycling readout [4-6, 12-13] and mentions the emerging label-free
// impedance and mass approaches [7-11]. This bench puts all four on one
// axis: detectable bound-target count per spot, plus the cyclic-voltammetry
// figure behind the electrochemical operating point.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/artifacts.hpp"
#include "core/experiment.hpp"
#include "dna/electrochemistry.hpp"
#include "dna/labelfree.hpp"
#include "dna/optical.hpp"
#include "dna/voltammetry.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace biosense;

void print_voltammetry() {
  dna::RedoxCouple couple;
  dna::ElectrodeParams el;
  Table t("Electrochemical operating point: cyclic voltammetry of the label"
          " couple");
  t.set_columns({"scan rate [V/s]", "anodic peak [A]", "Randles-Sevcik [A]",
                 "peak separation [mV]"});
  for (double v : {0.02, 0.05, 0.1, 0.2, 0.5}) {
    const auto cv = dna::cyclic_voltammetry(couple, el, -0.2, 0.5, v);
    t.add_row({v, cv.peak_anodic, dna::randles_sevcik_peak(couple, el, v),
               cv.peak_separation() * 1e3});
  }
  t.add_note("the DACs of Fig. 4 hold generator/collector around E0 = " +
             si_format(couple.e0, "V") + " of the label couple");
  t.print(std::cout);
}

void print_comparison() {
  Rng rng(81);
  dna::RedoxCyclingSensor redox(dna::RedoxParams{}, rng.fork());
  dna::FluorescenceScanner optical(dna::FluorescenceScannerParams{},
                                   rng.fork());
  dna::ImpedanceSensor impedance{dna::RandlesParams{}};
  dna::FbarSensor fbar{dna::FbarParams{}};

  const double probe_density = 1e16;   // 1/m^2
  const double spot_probes = 1e7;      // probes per spot
  const std::size_t target_bases = 100;
  const double f_imp = impedance.optimal_frequency();

  Table t("Detection principles: signal per bound-target count");
  t.set_columns({"bound targets", "redox current [A]", "optical SNR",
                 "impedance |Z| contrast", "FBAR shift [Hz]"});
  for (double bound : {1e2, 1e3, 1e4, 1e5, 1e6, 1e7}) {
    const double theta = bound / spot_probes;
    const double mass =
        dna::FbarSensor::dna_areal_mass(probe_density, theta, target_bases);
    t.add_row({bound, redox.steady_state_current(bound),
               optical.scan_spot(bound).snr,
               impedance.magnitude_contrast(f_imp, theta),
               fbar.frequency_shift(mass)});
  }
  t.print(std::cout);

  // Limits of detection on a common scale.
  const double redox_lod =
      1e-12 / (redox.steady_state_current(1.0) -
               redox.steady_state_current(0.0));  // labels for 1 pA
  const double optical_lod = optical.detection_limit_labels();
  // Impedance: 3x the 0.1% measurement noise in |Z| contrast.
  double imp_lod = spot_probes;
  for (double bound = 1e2; bound <= spot_probes; bound *= 1.3) {
    if (impedance.magnitude_contrast(f_imp, bound / spot_probes) > 3e-3) {
      imp_lod = bound;
      break;
    }
  }
  const double fbar_lod =
      fbar.mass_resolution() /
      dna::FbarSensor::dna_areal_mass(probe_density, 1.0 / spot_probes,
                                      target_bases);

  Table lod("Limit of detection (bound targets per spot, 3-sigma)");
  lod.set_columns({"principle", "LOD [targets]", "needs labels?"});
  lod.add_row({std::string("redox cycling + in-pixel ADC (this chip)"),
               redox_lod, std::string("yes (enzyme)")});
  lod.add_row({std::string("fluorescence scanner (optical baseline)"),
               optical_lod, std::string("yes (dye)")});
  lod.add_row({std::string("impedance (label-free)"), imp_lod,
               std::string("no")});
  lod.add_row({std::string("FBAR mass (label-free)"), fbar_lod,
               std::string("no")});
  core::write_table_csv(t, "detection_signals");
  lod.add_note("shape matches the paper's narrative: labeled electronic"
               " readout rivals optics; label-free trades sensitivity for"
               " simplicity");
  lod.print(std::cout);

  core::ClaimReport claims("Section 2 survey paper-vs-measured");
  claims.add("electronic rivals optical LOD", "same order of magnitude",
             std::to_string(redox_lod) + " vs " + std::to_string(optical_lod),
             redox_lod < 30.0 * optical_lod);
  claims.add("label-free less sensitive than labeled", "yes (in development)",
             imp_lod > redox_lod && fbar_lod > redox_lod ? "yes" : "no",
             imp_lod > redox_lod && fbar_lod > redox_lod);
  claims.print(std::cout);
  core::write_claims_json({claims}, "bench_detection_principles");
}

void BM_CyclicVoltammetry(benchmark::State& state) {
  dna::RedoxCouple couple;
  dna::ElectrodeParams el;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dna::cyclic_voltammetry(couple, el, -0.2, 0.5, 0.1));
  }
}
BENCHMARK(BM_CyclicVoltammetry)->Name("cyclic_voltammetry_full_cycle");

void BM_ImpedanceSpectrum(benchmark::State& state) {
  dna::ImpedanceSensor s{dna::RandlesParams{}};
  for (auto _ : state) {
    double acc = 0.0;
    for (double f = 10.0; f < 1e6; f *= 1.5) {
      acc += std::abs(s.impedance(f, 0.5));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ImpedanceSpectrum)->Name("impedance_spectrum_30pts");

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_detection_principles");
  {
    biosense::obs::PhaseTimer phase("detection.figures");
    print_voltammetry();
    print_comparison();
  }
  biosense::obs::PhaseTimer phase("detection.microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
