#include "dnachip/chip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace biosense::dnachip {
namespace {

DnaChipConfig small_chip() {
  DnaChipConfig c;
  c.rows = 4;
  c.cols = 4;
  return c;
}

TEST(GateCode, PowersOfTwoMilliseconds) {
  EXPECT_DOUBLE_EQ(gate_time_from_code(0), 1e-3);
  EXPECT_DOUBLE_EQ(gate_time_from_code(7), 128e-3);
  EXPECT_DOUBLE_EQ(gate_time_from_code(13), 8.192);
  EXPECT_THROW(gate_time_from_code(16), ConfigError);
}

TEST(DnaChip, PaperArrayDimensions) {
  DnaChip chip(DnaChipConfig{}, Rng(1));
  EXPECT_EQ(chip.rows() * chip.cols(), 128);  // 16 x 8 sensor sites
}

TEST(DnaChip, IgnoresCorruptedCommands) {
  DnaChip chip(small_chip(), Rng(1));
  auto bits = encode_command({Opcode::kSetDacGenerator, 100});
  bits.flip(3);
  EXPECT_TRUE(chip.process(bits).empty());
  EXPECT_DOUBLE_EQ(chip.generator_potential().value(), 0.0);  // unchanged
}

TEST(DnaChip, DacCommandsSetElectrodePotentials) {
  DnaChip chip(small_chip(), Rng(2));
  chip.process(encode_command({Opcode::kSetDacGenerator, 128}));
  chip.process(encode_command({Opcode::kSetDacCollector, 64}));
  EXPECT_NEAR(chip.generator_potential().value(), 5.0 * 128 / 256, 0.05);
  EXPECT_NEAR(chip.collector_potential().value(), 5.0 * 64 / 256, 0.05);
}

TEST(DnaChip, StatusReportsBandgap) {
  DnaChip chip(small_chip(), Rng(3));
  const auto reply = chip.process(encode_command({Opcode::kReadStatus, 0}));
  const auto words = decode_data(reply);
  ASSERT_TRUE(words.has_value());
  ASSERT_EQ(words->size(), 2u);
  EXPECT_NEAR((*words)[0] * 1e-3, 1.235, 0.02);  // bandgap in mV
  EXPECT_EQ((*words)[1], 0u);                     // not calibrated yet
}

TEST(DnaChip, ReferenceCurrentSane) {
  DnaChip chip(small_chip(), Rng(4));
  EXPECT_NEAR(chip.reference_current().value(), 1e-6, 0.1e-6);
}

TEST(HostInterface, AcquireReturnsAppliedCurrents) {
  DnaChip chip(small_chip(), Rng(5));
  HostInterface host(chip, SerialLink(0.0, Rng(6)));
  ASSERT_TRUE(host.auto_calibrate());

  std::vector<double> currents(16, 0.0);
  currents[0] = 10e-9;
  currents[5] = 1e-9;
  currents[15] = 50e-9;
  chip.apply_sensor_currents(currents);

  const auto frame = host.acquire(7);  // 128 ms gate
  ASSERT_EQ(frame.status, TxStatus::kOk);
  ASSERT_EQ(frame.currents.size(), 16u);
  EXPECT_NEAR(frame.currents[0], 10e-9, 0.5e-9);
  EXPECT_NEAR(frame.currents[5], 1e-9, 0.1e-9);
  EXPECT_NEAR(frame.currents[15], 50e-9, 2e-9);
  // Untouched sites read near zero after baseline subtraction.
  EXPECT_LT(frame.currents[3], 0.2e-9);
}

class DnaChipDecades : public ::testing::TestWithParam<double> {};

TEST_P(DnaChipDecades, AutorangeCoversFullDynamicRange) {
  // The chip must read 1 pA .. 100 nA (the paper's five decades) with one
  // host-side autorange acquisition.
  const double i = GetParam();
  DnaChipConfig cfg = small_chip();
  DnaChip chip(cfg, Rng(7));
  HostInterface host(chip, SerialLink(0.0, Rng(8)));
  ASSERT_TRUE(host.auto_calibrate());

  chip.apply_sensor_currents(std::vector<double>(16, i));
  const auto frame = host.acquire_autorange();
  ASSERT_EQ(frame.currents.size(), 16u);
  for (double meas : frame.currents) {
    EXPECT_NEAR(meas / i, 1.0, 0.25) << "applied " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(FiveDecades, DnaChipDecades,
                         ::testing::Values(1e-12, 1e-11, 1e-10, 1e-9, 1e-8,
                                           1e-7));

TEST(HostInterface, CounterHoldsFullScaleAndAutorangeShortensTheGate) {
  // At the 8.192 s gate a 100 nA site would count far past 2^16. The
  // 16-bit counter holds at full scale instead of wrapping to a small,
  // plausible-looking count, and autorange keeps a shorter gate for that
  // site while a 1 pA site keeps the longest.
  static_assert(kCounterFullScale == 0xffff);
  static_assert(kCounterSaturated == 0xfff0);
  DnaChip chip(small_chip(), Rng(13));
  HostInterface host(chip, SerialLink(0.0, Rng(14)));
  ASSERT_TRUE(host.auto_calibrate());
  std::vector<double> currents(16, 1e-12);
  currents[0] = 100e-9;
  chip.apply_sensor_currents(currents);

  const auto frame = host.acquire(13);
  ASSERT_EQ(frame.status, TxStatus::kOk);
  EXPECT_EQ(frame.raw_counts[0], kCounterFullScale);
  EXPECT_LT(frame.raw_counts[1], kCounterSaturated);

  const auto autorange = host.acquire_autorange();
  ASSERT_EQ(autorange.status, TxStatus::kOk);
  EXPECT_LT(autorange.raw_counts[0], kCounterSaturated);
  EXPECT_NEAR(autorange.currents[0] / 100e-9, 1.0, 0.25);
  // The 1 pA site keeps the 8.192 s gate: its count stays on the scale of
  // the gate-13 readout, 64x what the next shorter gate would give.
  EXPECT_GT(autorange.raw_counts[1], frame.raw_counts[1] / 2);
}

TEST(HostInterface, AutoCalibrationRemovesLeakageBias) {
  DnaChipConfig cfg = small_chip();
  cfg.site.leakage = Current(200e-15);       // strong common leakage
  cfg.site_leakage_sigma = Current(50e-15);  // plus spread
  DnaChip chip(cfg, Rng(9));

  HostInterface raw(chip, SerialLink(0.0, Rng(10)), cfg.site);
  chip.apply_sensor_currents(std::vector<double>(16, 0.0));
  // Without calibration the leakage shows up as apparent current.
  const auto frame_nocal = raw.acquire(13);
  double apparent = 0.0;
  for (double v : frame_nocal.currents) apparent += v / 16.0;
  EXPECT_GT(apparent, 100e-15);

  ASSERT_TRUE(raw.auto_calibrate(13));
  const auto frame_cal = raw.acquire(13);
  double residual = 0.0;
  for (double v : frame_cal.currents) residual += v / 16.0;
  EXPECT_LT(residual, apparent / 3.0);
}

TEST(HostInterface, SerialBitsAccounting) {
  DnaChip chip(small_chip(), Rng(11));
  HostInterface host(chip, SerialLink(0.0, Rng(12)));
  chip.apply_sensor_currents(std::vector<double>(16, 1e-9));
  const auto frame = host.acquire(3);
  // Conversion command (32) + its 2-word ACK (48) + read command (32) +
  // 16 data words (24 each).
  EXPECT_EQ(frame.serial_bits, 32u + 48u + 32u + 16u * 24u);
  EXPECT_EQ(frame.retries, 0u);  // clean link: first attempts succeed
}

TEST(HostInterface, CurrentFromFrequencyInvertsDeadTime) {
  DnaChip chip(small_chip(), Rng(13));
  HostInterface host(chip, SerialLink(0.0, Rng(14)));
  const i2f::I2fConfig site;
  const double cq = (site.c_int * (site.v_threshold - site.v_reset)).value();
  const double t_dead = site.dead_time().value();
  // Forward transfer at 50 nA, then invert.
  const double i = 50e-9;
  const double f = 1.0 / (cq / i + t_dead);
  EXPECT_NEAR(host.current_from_frequency(f), i, 1e-12);
}

TEST(HostInterface, SingleSiteDebugReadout) {
  DnaChip chip(small_chip(), Rng(21));
  HostInterface host(chip, SerialLink(0.0, Rng(22)));
  ASSERT_TRUE(host.auto_calibrate());
  std::vector<double> currents(16, 0.0);
  currents[2 * 4 + 3] = 5e-9;  // site (2, 3)
  chip.apply_sensor_currents(currents);
  const auto hot = host.acquire_site(2, 3, 7);
  ASSERT_TRUE(hot.has_value());
  EXPECT_NEAR(*hot, 5e-9, 0.3e-9);
  const auto cold = host.acquire_site(0, 0, 7);
  ASSERT_TRUE(cold.has_value());
  EXPECT_LT(*cold, 0.2e-9);
}

TEST(HostInterface, SingleSiteOutOfRangeFails) {
  DnaChip chip(small_chip(), Rng(23));
  HostInterface host(chip, SerialLink(0.0, Rng(24)));
  // Selecting a site beyond the array draws a NACK from the chip.
  EXPECT_FALSE(host.acquire_site(100, 100, 7).has_value());
  EXPECT_GT(host.stats().nacks, 0u);
}

TEST(DnaChip, NoisySerialLinkRecoveredByRetries) {
  DnaChip chip(small_chip(), Rng(15));
  HostInterface host(chip, SerialLink(0.01, Rng(16)));
  chip.apply_sensor_currents(std::vector<double>(16, 1e-9));
  // With 1% BER most individual frames are corrupted, but bounded retries
  // plus per-word merging recover nearly every acquisition — and any that
  // still fail must be flagged, never returned as garbage.
  int failures = 0;
  for (int k = 0; k < 20; ++k) {
    const auto frame = host.acquire(3);
    if (frame.status != TxStatus::kOk) {
      ++failures;
      EXPECT_EQ(frame.status, TxStatus::kRetriesExhausted);
      EXPECT_TRUE(frame.raw_counts.empty());
    }
  }
  EXPECT_LT(failures, 5);
  EXPECT_GT(host.stats().retries, 0u);
  EXPECT_GT(host.stats().crc_failures, 0u);
  EXPECT_GT(host.stats().backoff_s, 0.0);
}

TEST(DnaChip, RejectsInvalidConfig) {
  DnaChipConfig c = small_chip();
  c.rows = 0;
  EXPECT_THROW(DnaChip(c, Rng(1)), ConfigError);
  DnaChip ok(small_chip(), Rng(1));
  EXPECT_THROW(ok.apply_sensor_currents({1e-9}), ConfigError);
}

}  // namespace
}  // namespace biosense::dnachip
