// Integration test of the complete DNA path: sequences -> thermodynamics ->
// hybridization kinetics -> redox chemistry -> sensor currents -> in-pixel
// ADC -> serial readout -> host-side match calling (Section 2 end-to-end).
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/dna_workbench.hpp"

namespace biosense::core {
namespace {

std::vector<dna::TargetSpecies> gene_panel(int n, Rng& rng) {
  std::vector<dna::TargetSpecies> targets;
  for (int i = 0; i < n; ++i) {
    dna::TargetSpecies t;
    t.sequence = dna::Sequence::random(150, rng);
    t.concentration = 1e-9;
    t.name = "gene" + std::to_string(i);
    targets.push_back(std::move(t));
  }
  return targets;
}

DnaWorkbenchConfig fast_config() {
  DnaWorkbenchConfig cfg;
  cfg.protocol.time_step = 10.0;
  return cfg;
}

TEST(IntegrationDna, PresenceAbsenceCalledCorrectly) {
  Rng rng(101);
  const auto targets = gene_panel(10, rng);
  auto spots = dna::MicroarrayAssay::design_probes(targets, 20);
  DnaWorkbench wb(fast_config(), spots, Rng(102));

  // Sample: genes 0, 2, 4, 6, 8 present.
  std::vector<dna::TargetSpecies> sample;
  std::set<std::string> present;
  for (int i = 0; i < 10; i += 2) {
    sample.push_back(targets[static_cast<std::size_t>(i)]);
    present.insert(targets[static_cast<std::size_t>(i)].name);
  }

  const auto run = wb.run(sample);
  ASSERT_EQ(run.status, dnachip::TxStatus::kOk);
  ASSERT_EQ(run.calls.size(), 10u);
  for (const auto& call : run.calls) {
    EXPECT_EQ(call.called_match, present.count(call.name) == 1)
        << call.name << " measured " << call.measured_current;
  }
}

TEST(IntegrationDna, MeasuredCurrentTracksChemistry) {
  Rng rng(103);
  const auto targets = gene_panel(6, rng);
  auto spots = dna::MicroarrayAssay::design_probes(targets, 20);
  DnaWorkbench wb(fast_config(), spots, Rng(104));
  const auto run = wb.run({targets[0], targets[1]});
  for (const auto& call : run.calls) {
    if (call.true_current > 1e-11) {
      EXPECT_NEAR(call.measured_current / call.true_current, 1.0, 0.3)
          << call.name;
    }
  }
}

TEST(IntegrationDna, MismatchVariantsDiscriminated) {
  // Variant-calling assay: probe pairs against the wild-type window and a
  // 4-mismatch variant; only the matching spot survives the wash (1-3
  // mismatches only weaken a 20-mer duplex at these non-stringent
  // conditions — the washout regime starts around 4).
  Rng rng(105);
  const dna::Sequence wild = dna::Sequence::random(60, rng);
  const std::size_t pos = 20;
  const dna::Sequence window = wild.subsequence(pos, 20);

  dna::ProbeSpot wild_spot;
  wild_spot.probe = window.reverse_complement();
  wild_spot.name = "wild";
  dna::ProbeSpot variant_spot;
  Rng mm_rng(106);
  variant_spot.probe =
      window.with_mismatches(4, mm_rng).reverse_complement();
  variant_spot.name = "variant";

  DnaWorkbench wb(fast_config(), {wild_spot, variant_spot}, Rng(107));
  dna::TargetSpecies t;
  t.sequence = wild;
  t.concentration = 1e-9;
  const auto run = wb.run({t});
  ASSERT_EQ(run.calls.size(), 2u);
  EXPECT_TRUE(run.calls[0].called_match);
  EXPECT_GT(run.calls[0].measured_current,
            10.0 * run.calls[1].measured_current);
}

TEST(IntegrationDna, FullArrayCapacity) {
  // All 128 sensor sites loaded with probes at once.
  Rng rng(108);
  const auto targets = gene_panel(128, rng);
  auto spots = dna::MicroarrayAssay::design_probes(targets, 18);
  DnaWorkbench wb(fast_config(), spots, Rng(109));
  const auto run = wb.run({targets[0], targets[64], targets[127]});
  ASSERT_EQ(run.calls.size(), 128u);
  int matches = 0;
  for (const auto& c : run.calls) {
    if (c.called_match) ++matches;
  }
  // The three present targets (cross-hybridization of random 18-mers is
  // possible but rare).
  EXPECT_GE(matches, 3);
  EXPECT_LE(matches, 6);
}

TEST(IntegrationDna, DeterministicEndToEnd) {
  Rng rng_a(110);
  const auto targets = gene_panel(4, rng_a);
  auto spots = dna::MicroarrayAssay::design_probes(targets, 20);
  DnaWorkbench a(fast_config(), spots, Rng(111));
  DnaWorkbench b(fast_config(), spots, Rng(111));
  const auto ra = a.run({targets[0]});
  const auto rb = b.run({targets[0]});
  ASSERT_EQ(ra.calls.size(), rb.calls.size());
  for (std::size_t i = 0; i < ra.calls.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.calls[i].measured_current, rb.calls[i].measured_current);
  }
}

TEST(IntegrationDna, RejectsOversubscribedArray) {
  Rng rng(112);
  const auto targets = gene_panel(129, rng);
  auto spots = dna::MicroarrayAssay::design_probes(targets, 20);
  EXPECT_THROW(DnaWorkbench(fast_config(), spots, Rng(113)), ConfigError);
}

}  // namespace
}  // namespace biosense::core
