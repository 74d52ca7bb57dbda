#include "i2f/sawtooth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace biosense::i2f {
namespace {

/// The per-cycle walk `measure()` samples in closed form, kept as the test
/// oracle: one comparator-noise draw per ramp cycle, counting reset pulses
/// until the next cycle would overrun the gate. `theta` is the die's
/// static switching threshold (nominal threshold plus comparator offset);
/// `rng` supplies the per-decision noise.
std::uint64_t reference_count(const I2fConfig& c, double theta, Rng& rng,
                              double i_sensor, double gate_time) {
  const double i_net = i_sensor + c.leakage.value();
  if (i_net <= 0.0) return 0;
  const double c_int = c.c_int.value();
  const double v_reset = c.v_reset.value();
  const double sigma = c.comparator_noise_rms.value();
  const double t_dead = c.dead_time().value();
  std::uint64_t count = 0;
  double t = 0.0;
  double v = v_reset;
  while (true) {
    const double vth = theta + rng.normal(0.0, sigma);
    const double cycle = c_int * std::max(1e-6, vth - v) / i_net + t_dead;
    if (t + cycle > gate_time) break;
    t += cycle;
    ++count;
    v = v_reset + c.reset_residual_v.value();
  }
  return count;
}

/// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
/// two empirical CDFs (ties between the samples are stepped together).
double ks_statistic(std::vector<std::uint64_t> a,
                    std::vector<std::uint64_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t v = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == v) ++i;
    while (j < b.size() && b[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

I2fConfig quiet_config() {
  I2fConfig c;
  c.comparator_noise_rms = 0.0_V;
  c.comparator_offset_sigma = 0.0_V;
  c.leakage = 0.0_A;
  c.reset_residual_v = 0.0_V;
  return c;
}

TEST(I2f, IdealFrequencyFormula) {
  SawtoothConverter conv(quiet_config(), Rng(1));
  const I2fConfig c = quiet_config();
  const double i = 1e-9;
  const double ramp = (c.c_int * (c.v_threshold - c.v_reset)).value() / i;
  EXPECT_NEAR(conv.ideal_frequency(i), 1.0 / (ramp + conv.dead_time()), 1e-6);
  EXPECT_DOUBLE_EQ(conv.ideal_frequency(0.0), 0.0);
  EXPECT_DOUBLE_EQ(conv.ideal_frequency(-1e-9), 0.0);
}

TEST(I2f, DeadTimeIsSumOfDelays) {
  const I2fConfig c = quiet_config();
  SawtoothConverter conv(c, Rng(1));
  EXPECT_DOUBLE_EQ(conv.dead_time(),
                   (c.comparator_delay + c.delay_stage + c.reset_width).value());
}

class I2fLinearity : public ::testing::TestWithParam<double> {};

TEST_P(I2fLinearity, MeasuredFrequencyTracksIdeal) {
  // The paper's key claim for Fig. 3: "the measured frequency is
  // approximately proportional to the sensor current", across
  // 1 pA .. 100 nA (five decades).
  const double i_sensor = GetParam();
  SawtoothConverter conv(quiet_config(), Rng(2));
  // Gate long enough for >= 100 counts at the low end.
  const double gate = std::max(0.01, 120.0 / conv.ideal_frequency(i_sensor));
  const auto conv_result = conv.measure(i_sensor, gate);
  EXPECT_GT(conv_result.count, 50u);
  EXPECT_NEAR(conv_result.mean_frequency / conv.ideal_frequency(i_sensor), 1.0,
              0.03);
}

INSTANTIATE_TEST_SUITE_P(FiveDecades, I2fLinearity,
                         ::testing::Values(1e-12, 3e-12, 1e-11, 1e-10, 1e-9,
                                           1e-8, 3e-8, 1e-7));

TEST(I2f, HighCurrentCompression) {
  // Above the compression corner the dead time dominates and the transfer
  // flattens: f(10*I) < 10*f(I).
  SawtoothConverter conv(quiet_config(), Rng(3));
  const double corner = conv.compression_corner_current();
  const double f1 = conv.ideal_frequency(corner);
  const double f10 = conv.ideal_frequency(10.0 * corner);
  EXPECT_LT(f10, 10.0 * f1 * 0.6);
  // At the corner itself, exactly half the zero-dead-time slope.
  const double slope_f =
      corner / (quiet_config().c_int * quiet_config().delta_v()).value();
  EXPECT_NEAR(f1 / slope_f, 0.5, 1e-9);
}

TEST(I2f, LeakageSetsLowEndFloor) {
  I2fConfig c = quiet_config();
  c.leakage = Current(50e-15);
  SawtoothConverter conv(c, Rng(4));
  // Measuring zero input still produces counts from the leakage ramp.
  const auto r = conv.measure(0.0, 100.0);
  EXPECT_GT(r.count, 0u);
  // Reading interprets as ~leakage-equivalent current.
  const double apparent =
      r.mean_frequency * (c.c_int * (c.v_threshold - c.v_reset)).value();
  EXPECT_NEAR(apparent, 50e-15, 10e-15);
}

TEST(I2f, ComparatorNoiseCreatesCycleJitter) {
  I2fConfig noisy = quiet_config();
  noisy.comparator_noise_rms = 5.0_mV;
  SawtoothConverter a(noisy, Rng(5));
  SawtoothConverter b(quiet_config(), Rng(5));
  // Per-cycle threshold noise shows up as period jitter: the first period
  // of repeated conversions varies for the noisy converter, and its spread
  // matches noise/dV of the nominal period.
  RunningStats pa, pb;
  for (int k = 0; k < 200; ++k) {
    pa.add(a.measure(1e-9, 200e-6).first_period);
    pb.add(b.measure(1e-9, 200e-6).first_period);
  }
  EXPECT_GT(pa.stddev(), 10.0 * pb.stddev());
  const double dv = quiet_config().delta_v().value();
  EXPECT_NEAR(pa.stddev() / pa.mean(), 5e-3 / dv, 2e-3);
}

TEST(I2f, OffsetSpreadAcrossDies) {
  I2fConfig c = quiet_config();
  c.comparator_offset_sigma = 5.0_mV;
  RunningStats s;
  for (int k = 0; k < 2000; ++k) {
    s.add(SawtoothConverter(c, Rng(100 + k)).comparator_offset());
  }
  EXPECT_NEAR(s.stddev(), 5e-3, 0.5e-3);
}

TEST(I2f, TransientWaveformMatchesEventSimulation) {
  // The fixed-step sawtooth's period should agree with the closed-form
  // conversion's period model.
  I2fConfig c = quiet_config();
  SawtoothConverter conv(c, Rng(6));
  const double i = 10e-9;
  const double expected_period = 1.0 / conv.ideal_frequency(i);
  const auto trace = conv.transient_waveform(i, 6.0 * expected_period, 1e-8);
  const auto crossings = trace.up_crossings((0.9 * c.v_threshold).value());
  ASSERT_GE(crossings.size(), 3u);
  RunningStats periods;
  for (std::size_t k = 1; k < crossings.size(); ++k) {
    periods.add(crossings[k] - crossings[k - 1]);
  }
  EXPECT_NEAR(periods.mean(), expected_period, 0.05 * expected_period);
}

TEST(I2f, TransientWaveformStaysInRange) {
  const I2fConfig c = quiet_config();
  SawtoothConverter conv(c, Rng(7));
  const auto trace = conv.transient_waveform(50e-9, 100e-6, 1e-8);
  EXPECT_GE(trace.min_value(), c.v_reset.value() - 0.05);
  // The ramp overshoots the threshold by at most the dead-time ramp-on.
  EXPECT_LT(trace.max_value(), c.v_threshold.value() + 0.2);
}

TEST(I2f, CountScalesWithGateTime) {
  SawtoothConverter conv(quiet_config(), Rng(8));
  const auto short_gate = conv.measure(1e-9, 0.1);
  const auto long_gate = conv.measure(1e-9, 1.0);
  EXPECT_NEAR(static_cast<double>(long_gate.count) /
                  static_cast<double>(short_gate.count),
              10.0, 0.3);
}

TEST(I2f, PicoampMeasurementIsCheap) {
  // Closed-form evaluation: a 1 pA conversion over a 100 s gate must not
  // require stepping 100 s of waveform. Just verify it completes and gives
  // the right count (~ ideal f * gate).
  SawtoothConverter conv(quiet_config(), Rng(9));
  const auto r = conv.measure(1e-12, 100.0);
  EXPECT_NEAR(static_cast<double>(r.count),
              conv.ideal_frequency(1e-12) * 100.0, 3.0);
}

TEST(I2f, RejectsInvalidConfig) {
  I2fConfig c = quiet_config();
  c.c_int = 0.0_fF;
  EXPECT_THROW(SawtoothConverter(c, Rng(1)), ConfigError);
  c = quiet_config();
  c.v_threshold = c.v_reset;
  EXPECT_THROW(SawtoothConverter(c, Rng(1)), ConfigError);
  SawtoothConverter ok(quiet_config(), Rng(1));
  EXPECT_THROW(ok.measure(1e-9, 0.0), ConfigError);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ok.measure(1e-9, inf), ConfigError);
  EXPECT_THROW(ok.measure(1e-9, nan), ConfigError);
  EXPECT_THROW(ok.measure(inf, 1e-3), ConfigError);
  EXPECT_THROW(ok.measure(-inf, 1e-3), ConfigError);
  EXPECT_THROW(ok.measure(nan, 1e-3), ConfigError);
}

TEST(I2f, ClosedFormMatchesPerCycleOracleInDistribution) {
  // The closed-form count and the per-cycle walk must be one distribution:
  // a two-sample KS test over 20 000 conversions each, at comparator noise
  // large enough to spread a few-hundred-count conversion over several
  // counts. D must stay below the alpha = 0.01 critical value.
  const int n = 20000;
  const double i_sensor = 1e-9;
  const double gate = 30e-3;  // ~300 counts at 1 nA
  const double d_crit = 1.63 * std::sqrt(2.0 / n);
  std::uint64_t seed = 40;
  for (const double sigma : {20e-3, 50e-3, 100e-3}) {
    I2fConfig c;  // default die: offset, leakage and reset residual on
    c.comparator_noise_rms = Voltage(sigma);
    SawtoothConverter conv(c, Rng(++seed));
    const double theta = c.v_threshold.value() + conv.comparator_offset();
    Rng oracle_rng(1000 + seed);
    std::vector<std::uint64_t> closed(n), walked(n);
    RunningStats closed_stats, walked_stats;
    for (int k = 0; k < n; ++k) {
      closed[k] = conv.measure(i_sensor, gate).count;
      walked[k] = reference_count(c, theta, oracle_rng, i_sensor, gate);
      closed_stats.add(static_cast<double>(closed[k]));
      walked_stats.add(static_cast<double>(walked[k]));
    }
    ASSERT_GT(walked_stats.mean(), 100.0);
    ASSERT_LT(walked_stats.mean(), 1e4);
    EXPECT_LT(ks_statistic(closed, walked), d_crit) << "sigma " << sigma;
    EXPECT_NEAR(closed_stats.mean(), walked_stats.mean(),
                0.05 * walked_stats.stddev())
        << "sigma " << sigma;
    EXPECT_NEAR(closed_stats.stddev() / walked_stats.stddev(), 1.0, 0.05)
        << "sigma " << sigma;
  }
}

TEST(I2f, NoiselessCountMatchesPerCycleOracleExactly) {
  // Without comparator noise every later cycle has the same length, and
  // the closed form must reproduce the walk's count exactly across the
  // converter's five decades and the chip's gate codes (1 ms .. 8.192 s).
  I2fConfig c;
  c.comparator_noise_rms = 0.0_V;
  SawtoothConverter conv(c, Rng(50));
  const double theta = c.v_threshold.value() + conv.comparator_offset();
  Rng oracle_rng(51);
  int pairs = 0;
  for (int decade8 = 0; decade8 <= 40; ++decade8) {
    const double i_sensor = 1e-12 * std::pow(10.0, decade8 / 8.0);
    for (int code = 0; code <= 13; ++code) {
      const double gate = static_cast<double>(1u << code) * 1e-3;
      EXPECT_EQ(conv.measure(i_sensor, gate).count,
                reference_count(c, theta, oracle_rng, i_sensor, gate))
          << i_sensor << " A, gate code " << code;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 41 * 14);
}

TEST(I2f, DrawBudgetIsFixedPerConversion) {
  // Every conversion takes exactly two comparator draws — including the
  // below-leakage (no current) and first-cycle-overruns-gate early outs —
  // so two converters from one seed that measured different currents the
  // same number of times agree exactly on their next conversion.
  SawtoothConverter a(I2fConfig{}, Rng(60));
  SawtoothConverter b(I2fConfig{}, Rng(60));
  // a: two below-leakage inputs and two whose first cycle (~4 s at 1 pA,
  // ~5 s at zero input) overruns the 1 ms gate; b: five ordinary counts.
  const double a_currents[] = {-1e-9, 1e-12, -2e-9, 0.0, 1e-9};
  const double b_currents[] = {1e-7, 2e-8, 3e-9, 5e-10, 1e-9};
  for (int k = 0; k < 5; ++k) {
    const Conversion ca = a.measure(a_currents[k], 1e-3);
    const Conversion cb = b.measure(b_currents[k], 1e-3);
    EXPECT_EQ(ca.count == 0, k < 4) << k;
    EXPECT_GT(cb.count, 0u) << k;
  }
  const Conversion ra = a.measure(2e-9, 10e-3);
  const Conversion rb = b.measure(2e-9, 10e-3);
  EXPECT_EQ(ra.count, rb.count);
  EXPECT_EQ(ra.first_period, rb.first_period);
  EXPECT_EQ(ra.mean_frequency, rb.mean_frequency);
  EXPECT_EQ(ra.gate_time, rb.gate_time);
}

}  // namespace
}  // namespace biosense::i2f
