// Fault-tolerant readout: recovery through retries must be bitwise
// identical to a fault-free run, BIST must catch every injected defect,
// and failures past the retry budget must be flagged, never returned as
// data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/dna_workbench.hpp"
#include "dna/assay.hpp"
#include "dnachip/chip.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"

namespace biosense {
namespace {

using dnachip::ChipError;
using dnachip::CommandFrame;
using dnachip::DnaChip;
using dnachip::DnaChipConfig;
using dnachip::HostInterface;
using dnachip::Opcode;
using dnachip::SerialLink;
using dnachip::TxStatus;

DnaChipConfig small_chip() {
  DnaChipConfig c;
  c.rows = 4;
  c.cols = 4;
  return c;
}

TEST(RobustProtocol, Ber1e3ReadoutBitwiseIdenticalToFaultFreeRun) {
  // Two identical dies (same seed). One is read over a clean link, the
  // other over a link with BER 1e-3 — every 3072-bit frame is corrupted
  // with ~95% probability, so the noisy host *must* retry and merge.
  // Sequence-tagged commands guarantee each conversion runs exactly once,
  // so both dies' noise streams stay aligned and the recovered readout is
  // bitwise identical, full 16x8 array, all three autorange gates.
  const DnaChipConfig cfg{};  // the paper's full 128-site array
  DnaChip clean_chip(cfg, Rng(55));
  DnaChip noisy_chip(cfg, Rng(55));
  HostInterface clean(clean_chip, SerialLink(0.0, Rng(66)), cfg.site);
  HostInterface noisy(noisy_chip, SerialLink(1e-3, Rng(77)), cfg.site);

  ASSERT_TRUE(clean.auto_calibrate());
  ASSERT_TRUE(noisy.auto_calibrate());

  std::vector<double> currents(static_cast<std::size_t>(clean_chip.sites()),
                               1e-12);
  for (std::size_t i = 0; i < currents.size(); ++i) {
    currents[i] *= 1.0 + static_cast<double>(i % 97);  // spread of decades
  }
  clean_chip.apply_sensor_currents(currents);
  noisy_chip.apply_sensor_currents(currents);

  const auto ref = clean.acquire_autorange();
  const auto rec = noisy.acquire_autorange();
  ASSERT_EQ(ref.status, TxStatus::kOk);
  ASSERT_EQ(rec.status, TxStatus::kOk);

  // The noisy link did real damage and the host did real work.
  EXPECT_GT(noisy.stats().retries, 0u);
  EXPECT_GT(noisy.stats().crc_failures, 0u);
  EXPECT_GT(rec.serial_bits, ref.serial_bits);  // retry overhead

  // ... and yet the result is bitwise identical.
  ASSERT_EQ(rec.raw_counts.size(), ref.raw_counts.size());
  EXPECT_EQ(rec.raw_counts, ref.raw_counts);
  ASSERT_EQ(rec.currents.size(), ref.currents.size());
  for (std::size_t i = 0; i < ref.currents.size(); ++i) {
    EXPECT_EQ(rec.currents[i], ref.currents[i]) << "site " << i;
  }
}

TEST(RobustProtocol, DuplicateConversionCommandRunsOnce) {
  // A retried kStartConversion carries the same sequence tag; the chip
  // must not burn a second conversion (which would advance the comparator
  // noise streams and desync the die from its fault-free twin).
  DnaChip once(small_chip(), Rng(5));
  DnaChip twice(small_chip(), Rng(5));
  const std::vector<double> currents(16, 1e-9);
  once.apply_sensor_currents(currents);
  twice.apply_sensor_currents(currents);

  const auto conv = dnachip::encode_command(
      {Opcode::kStartConversion, (1u << 8) | 3u});
  once.process(conv);
  twice.process(conv);
  twice.process(conv);  // duplicate: must be a no-op beyond the ACK
  EXPECT_EQ(once.last_counts(), twice.last_counts());

  // A *new* tag runs a fresh conversion on both.
  const auto conv2 = dnachip::encode_command(
      {Opcode::kStartConversion, (2u << 8) | 3u});
  once.process(conv2);
  twice.process(conv2);
  EXPECT_EQ(once.last_counts(), twice.last_counts());
}

TEST(RobustProtocol, ChipNacksInvalidPayloads) {
  DnaChip chip(small_chip(), Rng(6));
  auto reply_of = [&](Opcode op, std::uint16_t payload) {
    return dnachip::decode_data(
        chip.process(dnachip::encode_command({op, payload})));
  };

  // Row 9 on a 4x4 die.
  auto nack = reply_of(Opcode::kSelectSite, (9u << 8) | 1u);
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ((*nack)[0], dnachip::kNackMagic);
  EXPECT_EQ((*nack)[1], static_cast<std::uint16_t>(ChipError::kBadSite));

  // Gate code 31 (> 15).
  nack = reply_of(Opcode::kStartConversion, (1u << 8) | 31u);
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ((*nack)[0], dnachip::kNackMagic);
  EXPECT_EQ((*nack)[1], static_cast<std::uint16_t>(ChipError::kBadGate));

  // DAC code beyond 8 bits.
  nack = reply_of(Opcode::kSetDacGenerator, 300);
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ((*nack)[0], dnachip::kNackMagic);
  EXPECT_EQ((*nack)[1], static_cast<std::uint16_t>(ChipError::kBadDacCode));
  EXPECT_DOUBLE_EQ(chip.generator_potential().value(), 0.0);  // rejected = no effect

  // Valid payloads draw ACKs.
  const auto ack = reply_of(Opcode::kSelectSite, (2u << 8) | 2u);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ((*ack)[0], dnachip::kAckMagic);
}

TEST(RobustProtocol, DeadLinkExhaustsRetriesAndIsFlagged) {
  DnaChip chip(small_chip(), Rng(7));
  dnachip::RetryPolicy retry;
  retry.max_attempts = 4;
  HostInterface host(chip, SerialLink(0.0, Rng(8)), small_chip().site, retry);
  faults::LinkFaultModel dead_link;
  dead_link.drop_prob = 1.0 - 1e-12;  // probabilities live in [0,1)
  host.link().inject_faults(dead_link);

  const auto frame = host.acquire(3);
  EXPECT_EQ(frame.status, TxStatus::kRetriesExhausted);
  EXPECT_TRUE(frame.raw_counts.empty());
  EXPECT_EQ(host.stats().attempts, 4u);  // bounded: one command, 4 tries
  EXPECT_EQ(host.stats().retries, 3u);
  EXPECT_GT(host.stats().backoff_s, 0.0);
  EXPECT_FALSE(host.acquire_site(0, 0, 3).has_value());
  EXPECT_FALSE(host.self_test().has_value());
  EXPECT_FALSE(host.auto_calibrate());
}

TEST(RobustProtocol, TimeoutsAndDropsRecoveredWithinBudget) {
  DnaChip chip(small_chip(), Rng(9));
  HostInterface host(chip, SerialLink(0.0, Rng(10)), small_chip().site);
  faults::LinkFaultModel flaky;
  flaky.timeout_prob = 0.15;
  flaky.drop_prob = 0.10;
  flaky.truncate_prob = 0.10;
  host.link().inject_faults(flaky);

  ASSERT_TRUE(host.auto_calibrate());
  chip.apply_sensor_currents(std::vector<double>(16, 2e-9));
  const auto frame = host.acquire(7);
  ASSERT_EQ(frame.status, TxStatus::kOk);
  EXPECT_NEAR(frame.currents[0], 2e-9, 0.2e-9);
  EXPECT_GT(host.stats().retries, 0u);
  EXPECT_GT(host.stats().timeouts, 0u);
}

TEST(RobustProtocol, DnaBistFlagsEveryInjectedDefect) {
  // 5% dead + 3% stuck + 2% leakage outliers on the full 128-site array:
  // the BIST sweep must flag every single one (zero false negatives) and,
  // with these margins, nothing else.
  faults::FaultPlanConfig plan_cfg;
  plan_cfg.seed = 2026;
  plan_cfg.dna_dead_fraction = 0.05;
  plan_cfg.dna_stuck_fraction = 0.03;
  plan_cfg.dna_leakage_outlier_fraction = 0.02;
  const faults::FaultPlan plan(plan_cfg);

  const DnaChipConfig cfg{};
  const auto injected = plan.dna_site_faults(cfg.rows, cfg.cols);
  ASSERT_GT(injected.total(), 0u);

  DnaChip chip(cfg, Rng(11));
  chip.inject_faults(injected);
  HostInterface host(chip, SerialLink(0.0, Rng(12)), cfg.site);

  const auto map = host.self_test();
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->false_negatives(injected), 0u);
  EXPECT_EQ(map->defect_count(), injected.total());  // no false positives
  EXPECT_LT(map->yield(), 1.0);
}

TEST(RobustProtocol, DnaBistCleanDieComesBackClean) {
  DnaChip chip(small_chip(), Rng(13));
  HostInterface host(chip, SerialLink(0.0, Rng(14)), small_chip().site);
  const auto map = host.self_test();
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->defect_count(), 0u);
  EXPECT_DOUBLE_EQ(map->yield(), 1.0);
}

TEST(RobustProtocol, DnaBistSurvivesNoisyLink) {
  faults::FaultPlanConfig plan_cfg;
  plan_cfg.seed = 3;
  plan_cfg.dna_dead_fraction = 0.05;
  const faults::FaultPlan plan(plan_cfg);
  const DnaChipConfig cfg = small_chip();
  const auto injected = plan.dna_site_faults(cfg.rows, cfg.cols);

  DnaChip chip(cfg, Rng(15));
  chip.inject_faults(injected);
  HostInterface host(chip, SerialLink(1e-3, Rng(16)), cfg.site);
  const auto map = host.self_test();
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->false_negatives(injected), 0u);
}

// --- neural recording chip ------------------------------------------------

neurochip::NeuroChipConfig tiny_neuro(int n = 16) {
  neurochip::NeuroChipConfig c;
  c.rows = n;
  c.cols = n;
  c.pixel.noise_white_psd = VoltagePsd(0.0);
  c.pixel.noise_flicker_kf = VoltageSq(0.0);
  return c;
}

TEST(RobustProtocol, NeuroBistFlagsEveryInjectedDefect) {
  faults::FaultPlanConfig plan_cfg;
  plan_cfg.seed = 99;
  plan_cfg.neuro_dead_fraction = 0.05;
  plan_cfg.neuro_stuck_fraction = 0.03;
  plan_cfg.neuro_railed_fraction = 0.02;
  plan_cfg.channel_gain_drift_sigma = 0.03;
  const faults::FaultPlan plan(plan_cfg);

  neurochip::NeuroChip chip(tiny_neuro(32), Rng(20));
  const auto injected = plan.neuro_pixel_faults(32, 32);
  ASSERT_GT(injected.total(), 0u);
  chip.inject_faults(injected, plan.channel_gain_drift(chip.channels()));

  EXPECT_FALSE(chip.self_test().has_value());  // requires calibration
  chip.calibrate_all();
  const auto map = chip.self_test();
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->false_negatives(injected), 0u);
  EXPECT_EQ(map->defect_count(), injected.total());  // no false positives
}

TEST(RobustProtocol, NeuroDefectMaskingInterpolatesFromNeighbours) {
  neurochip::NeuroChip chip(tiny_neuro(), Rng(21));
  chip.calibrate_all();

  faults::SiteFaultSet injected;
  injected.rows = 16;
  injected.cols = 16;
  injected.type.assign(256, faults::SiteFaultType::kNone);
  injected.value.assign(256, 0.0);
  injected.type[static_cast<std::size_t>(5 * 16 + 5)] =
      faults::SiteFaultType::kDead;
  chip.inject_faults(injected);

  const neurochip::ConstantSource probe(1e-3);
  const auto raw = chip.capture_frame(probe, 0.0);
  EXPECT_EQ(raw.code_at(5, 5), 0);  // dead pixel reads nothing
  EXPECT_EQ(raw.masked, 0);

  const auto map = chip.self_test();
  ASSERT_TRUE(map.has_value());
  ASSERT_FALSE(map->good(5, 5));
  chip.set_defect_map(*map);

  const auto masked = chip.capture_frame(probe, 1.0);
  EXPECT_EQ(masked.masked, 1);
  // Interpolated value lands on the neighbours' mean response.
  const double neighbours = (masked.code_at(4, 5) + masked.code_at(6, 5) +
                             masked.code_at(5, 4) + masked.code_at(5, 6)) /
                            4.0;
  EXPECT_NEAR(masked.code_at(5, 5), neighbours, 1.0);
  const double v_neighbours = (masked.at(4, 5) + masked.at(6, 5) +
                               masked.at(5, 4) + masked.at(5, 6)) /
                              4.0;
  EXPECT_NEAR(masked.at(5, 5), v_neighbours, 2e-4);  // reconstructed volts
}

TEST(RobustProtocol, ChannelGainDriftScalesWholeMuxGroups) {
  neurochip::NeuroChip chip(tiny_neuro(), Rng(22));  // 16 rows, 2 channels
  faults::SiteFaultSet none;
  none.rows = 16;
  none.cols = 16;
  none.type.assign(256, faults::SiteFaultType::kNone);
  none.value.assign(256, 0.0);
  chip.inject_faults(none, {1.0, 1.5});
  chip.calibrate_all();

  // Static per-pixel offsets (calibration residuals) dwarf the probe
  // signal, so look at the step response between two probe levels — the
  // offsets cancel and only the drift-scaled gain remains.
  const auto base = chip.capture_frame(neurochip::ConstantSource(0.0), 0.0);
  const auto step = chip.capture_frame(neurochip::ConstantSource(1e-3), 0.0);
  double ch0 = 0.0;
  double ch1 = 0.0;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 16; ++c) {
      ch0 += step.code_at(r, c) - base.code_at(r, c);
      ch1 += step.code_at(r + 8, c) - base.code_at(r + 8, c);
    }
  }
  EXPECT_NEAR(ch1 / ch0, 1.5, 0.1);
}

// --- workbench integration ------------------------------------------------

TEST(RobustProtocol, WorkbenchReportsGracefulDegradation) {
  core::DnaWorkbenchConfig cfg;
  cfg.chip.rows = 4;
  cfg.chip.cols = 4;
  cfg.run_bist = true;
  cfg.faults.seed = 8;
  cfg.faults.dna_dead_fraction = 0.2;
  cfg.faults.link.bit_error_rate = 1e-3;

  std::vector<dna::ProbeSpot> spots;
  for (int i = 0; i < 16; ++i) {
    dna::ProbeSpot s;
    s.name = "spot" + std::to_string(i);
    s.probe = dna::Sequence("ACGTACGTACGTACGTACGT");
    spots.push_back(std::move(s));
  }
  core::DnaWorkbench bench(cfg, std::move(spots), Rng(30));
  const auto run = bench.run({});

  EXPECT_EQ(run.status, dnachip::TxStatus::kOk);
  EXPECT_TRUE(run.degradation.bist_ok);
  EXPECT_FALSE(run.defects.empty());
  EXPECT_GT(run.degradation.masked, 0);
  EXPECT_LT(run.degradation.yield, 1.0);
  EXPECT_GT(run.degradation.retries, 0u);
  ASSERT_EQ(run.calls.size(), 16u);
  int masked_calls = 0;
  for (const auto& call : run.calls) {
    if (call.masked) ++masked_calls;
  }
  EXPECT_EQ(masked_calls, run.degradation.masked);
}

}  // namespace
}  // namespace biosense
