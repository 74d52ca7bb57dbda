// Fig. 3 reproduction: the in-sensor-site current-to-frequency ADC.
//
// Regenerates (a) the sawtooth waveform the figure sketches, (b) the
// frequency-vs-current transfer across the paper's quoted 1 pA .. 100 nA
// range with the proportionality check, and (c) the conversion's count
// statistics. Also times the closed-form converter kernel with
// google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/artifacts.hpp"
#include "core/experiment.hpp"
#include "i2f/sawtooth.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace biosense;

void print_waveform() {
  i2f::SawtoothConverter conv(i2f::I2fConfig{}, Rng(1));
  const double i_sensor = 10e-9;
  const double period = 1.0 / conv.ideal_frequency(i_sensor);
  const auto trace = conv.transient_waveform(i_sensor, 3.2 * period, period / 400.0);

  std::cout << "== Fig. 3 (waveform): integrator sawtooth at I = 10 nA ==\n";
  // ASCII plot, 72 columns x 16 rows.
  const int w = 72, h = 14;
  const double v_lo = 0.25, v_hi = 1.1;
  std::vector<std::string> canvas(h, std::string(w, ' '));
  for (int x = 0; x < w; ++x) {
    const std::size_t idx = static_cast<std::size_t>(
        static_cast<double>(x) / w * static_cast<double>(trace.size() - 1));
    const double v = trace.values()[idx];
    int y = static_cast<int>((v - v_lo) / (v_hi - v_lo) * (h - 1));
    y = std::clamp(y, 0, h - 1);
    canvas[static_cast<std::size_t>(h - 1 - y)][static_cast<std::size_t>(x)] = '*';
  }
  for (const auto& line : canvas) std::cout << "  |" << line << "|\n";
  std::cout << "  switching threshold = 1.0 V, reset level = 0.3 V, period "
            << si_format(period, "s") << "\n\n";
}

void print_transfer() {
  i2f::SawtoothConverter conv(i2f::I2fConfig{}, Rng(2));

  Table t("Fig. 3 (transfer): conversion frequency vs sensor current, 1 pA .. 100 nA");
  t.set_columns({"I_sensor [A]", "f_ideal [Hz]", "f_measured [Hz]", "counts",
                 "gate [s]", "dev from proportional [%]"});

  std::vector<double> log_i, log_f;
  const double slope_hz_per_a =
      1.0 / (conv.config().c_int * conv.config().delta_v()).value();
  for (double i : core::log_space(1e-12, 100e-9, 11)) {
    const double gate = std::min(200.0, std::max(0.05, 200.0 / conv.ideal_frequency(i)));
    const auto c = conv.measure(i, gate);
    const double proportional = slope_hz_per_a * i;
    t.add_row({i, conv.ideal_frequency(i), c.mean_frequency,
               static_cast<long long>(c.count), gate,
               100.0 * (c.mean_frequency / proportional - 1.0)});
    log_i.push_back(std::log10(i));
    log_f.push_back(std::log10(std::max(1e-6, c.mean_frequency)));
  }
  const auto fit = linear_fit(log_i, log_f);
  t.add_note("paper: 'measured frequency is approximately proportional to the"
             " sensor current' across 1 pA .. 100 nA");
  t.add_note("log-log slope = " + std::to_string(fit.slope) +
             " (1.0 = proportional), r^2 = " + std::to_string(fit.r_squared));
  t.print(std::cout);
  core::write_table_csv(t, "fig3_transfer");

  core::ClaimReport claims("Fig. 3 paper-vs-measured");
  claims.add_range("dynamic range (decades)", "5 (1 pA .. 100 nA)",
                   (log_i.back() - log_i.front()), 4.9, 5.1, "dec");
  claims.add("log-log slope", "~1 (proportional)", std::to_string(fit.slope),
             fit.slope > 0.95 && fit.slope < 1.05);
  claims.add_range("compression corner", "above 100 nA",
                   conv.compression_corner_current(), 100e-9, 1e-5, "A");
  claims.print(std::cout);
  core::write_claims_json({claims}, "bench_fig3_i2f");
}

void print_noise_floor() {
  Table t("Fig. 3 (low end): repeated 1 pA conversions - count statistics");
  t.set_columns({"trial", "counts in 100 s", "f [Hz]"});
  i2f::I2fConfig noisy;  // default includes comparator noise and leakage
  i2f::SawtoothConverter conv(noisy, Rng(3));
  RunningStats s;
  for (int k = 0; k < 5; ++k) {
    const auto c = conv.measure(1e-12, 100.0);
    t.add_row({static_cast<long long>(k), static_cast<long long>(c.count),
               c.mean_frequency});
    s.add(c.mean_frequency);
  }
  t.add_note("leakage (" + si_format(noisy.leakage.value(), "A") +
             ") sets the apparent-current floor at the pA end");
  t.print(std::cout);
}

void BM_GatedConversion(benchmark::State& state) {
  i2f::SawtoothConverter conv(i2f::I2fConfig{}, Rng(4));
  const double i = std::pow(10.0, static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.measure(i * 1e-12, 1.0));
  }
}
BENCHMARK(BM_GatedConversion)->Arg(0)->Arg(2)->Arg(5)
    ->Name("i2f_measure_1s_gate_10^x_pA");

void BM_TransientWaveform(benchmark::State& state) {
  i2f::SawtoothConverter conv(i2f::I2fConfig{}, Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.transient_waveform(10e-9, 50e-6, 1e-8));
  }
}
BENCHMARK(BM_TransientWaveform)->Name("i2f_transient_50us_at_10ns");

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_fig3_i2f");
  {
    biosense::obs::PhaseTimer phase("fig3.figures");
    print_waveform();
    print_transfer();
    print_noise_floor();
  }
  biosense::obs::PhaseTimer phase("fig3.microbench");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
