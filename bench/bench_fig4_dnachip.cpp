// Fig. 4 reproduction: the full 8x16 DNA microarray chip with periphery
// and 6-pin serial interface.
//
// Regenerates: full-chip assay readout (presence calling over the whole
// array), the serial-interface bit/time budget, periphery behaviour
// (bandgap, reference, DAC placement of the electrochemical potentials)
// and the autorange acquisition over the chip's five-decade input range.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/dna_workbench.hpp"
#include "core/artifacts.hpp"
#include "core/experiment.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace biosense;

void print_fullchip_assay(core::ClaimReport& claims) {
  Rng rng(21);
  std::vector<dna::TargetSpecies> panel;
  for (int i = 0; i < 128; ++i) {
    dna::TargetSpecies t;
    t.sequence = dna::Sequence::random(120, rng);
    t.concentration = 1e-9;
    t.name = "g";
    t.name += std::to_string(i);
    panel.push_back(std::move(t));
  }
  auto spots = dna::MicroarrayAssay::design_probes(panel, 20);
  core::DnaWorkbenchConfig cfg;
  cfg.protocol.time_step = 10.0;
  core::DnaWorkbench wb(cfg, spots, Rng(22));

  // Sample: every fourth gene present -> 32 positives.
  std::vector<dna::TargetSpecies> sample;
  for (int i = 0; i < 128; i += 4) {
    sample.push_back(panel[static_cast<std::size_t>(i)]);
  }
  const auto run = wb.run(sample);

  int tp = 0, fp = 0, fn = 0, tn = 0;
  for (std::size_t i = 0; i < run.calls.size(); ++i) {
    const bool present = (i % 4) == 0;
    const bool called = run.calls[i].called_match;
    tp += (present && called);
    fp += (!present && called);
    fn += (present && !called);
    tn += (!present && !called);
  }

  Table t("Fig. 4 (full chip): 128-spot assay, 32 targets present");
  t.set_columns({"metric", "value"});
  t.add_row({std::string("sensor sites"), static_cast<long long>(run.calls.size())});
  t.add_row({std::string("true positives"), static_cast<long long>(tp)});
  t.add_row({std::string("false positives"), static_cast<long long>(fp)});
  t.add_row({std::string("false negatives"), static_cast<long long>(fn)});
  t.add_row({std::string("true negatives"), static_cast<long long>(tn)});
  t.add_row({std::string("serial bits for acquisition"),
             static_cast<long long>(run.serial_bits)});
  t.print(std::cout);
  claims.add("assay accuracy", "32 TP / 0 FP / 0 FN (32 of 128 present)",
             std::to_string(tp) + " TP / " + std::to_string(fp) + " FP / " +
                 std::to_string(fn) + " FN",
             tp == 32 && fp == 0 && fn == 0);
}

void print_serial_budget() {
  Table t("Fig. 4 (interface): 6-pin serial budget per full-array readout");
  t.set_columns({"item", "bits", "time @ 1 MHz SCLK [ms]"});
  const long long cmd = 32;
  const long long frame = 128 * 24;
  t.add_row({std::string("command frame"), cmd, cmd / 1000.0});
  t.add_row({std::string("counter frame (128 x 24b)"), frame, frame / 1000.0});
  t.add_row({std::string("autorange (3 gates)"),
             3 * (2 * cmd + frame), 3 * (2 * cmd + frame) / 1000.0});
  t.add_note("pins: VDD, GND, CS, SCLK, DIN, DOUT - power supply and serial"
             " digital data transmission only (paper: '6 pin interface')");
  t.print(std::cout);
}

void print_periphery() {
  dnachip::DnaChipConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  dnachip::DnaChip chip(cfg, Rng(23));
  dnachip::HostInterface host(chip, dnachip::SerialLink(0.0, Rng(24)));

  Table t("Fig. 4 (periphery): references and DACs");
  t.set_columns({"block", "value"});
  t.add_row({std::string("bandgap reference"),
             si_format(chip.bandgap_voltage().value(), "V")});
  t.add_row({std::string("current reference"),
             si_format(chip.reference_current().value(), "A")});
  host.set_electrode_potentials(1.2_V, 0.8_V);
  t.add_row({std::string("generator electrode (target 1.2 V)"),
             si_format(chip.generator_potential().value(), "V")});
  t.add_row({std::string("collector electrode (target 0.8 V)"),
             si_format(chip.collector_potential().value(), "V")});
  t.add_note("'bandgap and current references, auto-calibration circuits,"
             " D/A-converters to provide the required voltages'");
  t.print(std::cout);
}

void print_autorange(core::ClaimReport& claims) {
  dnachip::DnaChipConfig cfg;  // full 16x8
  dnachip::DnaChip chip(cfg, Rng(25));
  dnachip::HostInterface host(chip, dnachip::SerialLink(0.0, Rng(26)));
  (void)host.auto_calibrate();

  Table t("Fig. 4 (dynamic range): autorange acquisition across five decades");
  t.set_columns({"applied [A]", "measured [A]", "error [%]"});
  double worst_error_pct = 0.0;
  for (double i : core::log_space(1e-12, 100e-9, 6)) {
    chip.apply_sensor_currents(
        std::vector<double>(static_cast<std::size_t>(chip.sites()), i));
    const auto frame = host.acquire_autorange();
    double mean_meas = 0.0;
    for (double v : frame.currents) mean_meas += v / frame.currents.size();
    const double error_pct = 100.0 * (mean_meas / i - 1.0);
    worst_error_pct = std::max(worst_error_pct, std::abs(error_pct));
    t.add_row({i, mean_meas, error_pct});
  }
  t.print(std::cout);
  core::write_table_csv(t, "fig4_autorange");

  claims.add("array size", "16 x 8 = 128 sensors",
             std::to_string(chip.sites()), chip.sites() == 128);
  claims.add_range("bandgap", "~1.2 V", chip.bandgap_voltage().value(), 1.15,
                   1.3,
                   "V");
  claims.add_range("autorange error (1 pA .. 100 nA)", "<= 1.6 %",
                   worst_error_pct, 0.0, 1.6, "%");
}

void BM_FullFrameAcquisition(benchmark::State& state) {
  dnachip::DnaChip chip(dnachip::DnaChipConfig{}, Rng(27));
  dnachip::HostInterface host(chip, dnachip::SerialLink(0.0, Rng(28)));
  chip.apply_sensor_currents(
      std::vector<double>(static_cast<std::size_t>(chip.sites()), 1e-9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.acquire(7));
  }
}
BENCHMARK(BM_FullFrameAcquisition)->Name("dnachip_full_frame_128_sites");

void BM_ChipConstruction(benchmark::State& state) {
  for (auto _ : state) {
    dnachip::DnaChip chip(dnachip::DnaChipConfig{}, Rng(29));
    benchmark::DoNotOptimize(&chip);
  }
}
BENCHMARK(BM_ChipConstruction)->Name("dnachip_die_instantiation");

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_fig4_dnachip");
  {
    biosense::obs::PhaseTimer phase("fig4.figures");
    biosense::core::ClaimReport claims("Fig. 4 paper-vs-measured");
    print_fullchip_assay(claims);
    print_serial_budget();
    print_periphery();
    print_autorange(claims);
    claims.print(std::cout);
    biosense::core::write_claims_json({claims}, "bench_fig4_dnachip");
  }
  biosense::obs::PhaseTimer phase("fig4.microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
