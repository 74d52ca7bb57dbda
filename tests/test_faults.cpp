#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "faults/defect_map.hpp"

namespace biosense::faults {
namespace {

TEST(FaultPlan, DefaultPlanIsFaultFree) {
  FaultPlan plan{FaultPlanConfig{}};
  EXPECT_FALSE(plan.any_dna_faults());
  EXPECT_FALSE(plan.any_neuro_faults());
  EXPECT_FALSE(plan.link_faults().any());
  EXPECT_TRUE(plan.dna_site_faults(16, 8).empty());
  EXPECT_TRUE(plan.neuro_pixel_faults(8, 8).empty());
  for (double g : plan.channel_gain_drift(16)) EXPECT_DOUBLE_EQ(g, 1.0);
}

TEST(FaultPlan, MaterializationIsDeterministic) {
  FaultPlanConfig cfg;
  cfg.seed = 42;
  cfg.dna_dead_fraction = 0.05;
  cfg.dna_stuck_fraction = 0.03;
  cfg.dna_leakage_outlier_fraction = 0.02;
  cfg.neuro_dead_fraction = 0.04;
  cfg.neuro_railed_fraction = 0.02;
  cfg.channel_gain_drift_sigma = 0.05;
  FaultPlan a(cfg);
  FaultPlan b(cfg);
  const auto sa = a.dna_site_faults(16, 8);
  const auto sb = b.dna_site_faults(16, 8);
  EXPECT_EQ(sa.type, sb.type);
  EXPECT_EQ(sa.value, sb.value);
  const auto pa = a.neuro_pixel_faults(32, 32);
  const auto pb = b.neuro_pixel_faults(32, 32);
  EXPECT_EQ(pa.type, pb.type);
  EXPECT_EQ(a.channel_gain_drift(16), b.channel_gain_drift(16));
  // Materializers derive independent streams: calling them in a different
  // order must not change the result.
  const auto pa2 = a.neuro_pixel_faults(32, 32);
  EXPECT_EQ(pa.type, pa2.type);
}

TEST(FaultPlan, FractionsComeOutRoughlyAsRequested) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.dna_dead_fraction = 0.10;
  cfg.dna_stuck_fraction = 0.05;
  FaultPlan plan(cfg);
  const auto set = plan.dna_site_faults(64, 64);  // 4096 sites
  const auto dead = static_cast<double>(set.count(SiteFaultType::kDead));
  const auto stuck = static_cast<double>(set.count(SiteFaultType::kStuck));
  EXPECT_NEAR(dead / 4096.0, 0.10, 0.02);
  EXPECT_NEAR(stuck / 4096.0, 0.05, 0.015);
}

TEST(FaultPlan, JsonRoundtrip) {
  FaultPlanConfig cfg;
  cfg.seed = 1234;
  cfg.dna_dead_fraction = 0.05;
  cfg.dna_stuck_fraction = 0.01;
  cfg.dna_leakage_outlier_fraction = 0.02;
  cfg.dna_leakage_outlier_amp = 7e-12;
  cfg.neuro_dead_fraction = 0.03;
  cfg.neuro_stuck_fraction = 0.02;
  cfg.neuro_railed_fraction = 0.01;
  cfg.channel_gain_drift_sigma = 0.04;
  cfg.link.bit_error_rate = 1e-3;
  cfg.link.burst_prob = 0.01;
  cfg.link.burst_length = 12;
  cfg.link.drop_prob = 0.02;
  cfg.link.truncate_prob = 0.03;
  cfg.link.timeout_prob = 0.04;
  const FaultPlan plan(cfg);

  const FaultPlan back = FaultPlan::from_json(plan.to_json());
  const auto& c = back.config();
  EXPECT_EQ(c.seed, cfg.seed);
  EXPECT_DOUBLE_EQ(c.dna_dead_fraction, cfg.dna_dead_fraction);
  EXPECT_DOUBLE_EQ(c.dna_leakage_outlier_amp, cfg.dna_leakage_outlier_amp);
  EXPECT_DOUBLE_EQ(c.neuro_railed_fraction, cfg.neuro_railed_fraction);
  EXPECT_DOUBLE_EQ(c.channel_gain_drift_sigma, cfg.channel_gain_drift_sigma);
  EXPECT_DOUBLE_EQ(c.link.bit_error_rate, cfg.link.bit_error_rate);
  EXPECT_EQ(c.link.burst_length, cfg.link.burst_length);
  EXPECT_DOUBLE_EQ(c.link.timeout_prob, cfg.link.timeout_prob);

  // A replayed plan materializes the identical fault world.
  const auto sa = plan.dna_site_faults(16, 8);
  const auto sb = back.dna_site_faults(16, 8);
  EXPECT_EQ(sa.type, sb.type);
  EXPECT_EQ(sa.value, sb.value);
}

TEST(FaultPlan, FromJsonRejectsGarbage) {
  EXPECT_THROW(FaultPlan::from_json("{}"), ConfigError);
  EXPECT_THROW(FaultPlan::from_json("not json at all"), ConfigError);
}

TEST(FaultPlan, FromJsonRejectsNonFiniteAmplitudes) {
  // strtod accepts "inf", "nan" and overflowing literals; the open-ended
  // amplitudes must not let them through to the converters or channels.
  const std::string base = FaultPlan(FaultPlanConfig{}).to_json();
  for (const char* key :
       {"dna_leakage_outlier_amp", "channel_gain_drift_sigma"}) {
    for (const char* value : {"inf", "1e999", "nan", "-inf"}) {
      std::string json = base;
      const std::string quoted = std::string("\"") + key + "\": ";
      const std::size_t at = json.find(quoted);
      ASSERT_NE(at, std::string::npos) << key;
      const std::size_t begin = at + quoted.size();
      json.replace(begin, json.find_first_of(",}", begin) - begin, value);
      EXPECT_THROW(FaultPlan::from_json(json), ConfigError)
          << key << " = " << value;
    }
  }
  FaultPlanConfig cfg;
  cfg.dna_leakage_outlier_amp = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);

  // A finite amplitude whose 2x outlier draw would overflow is refused too.
  std::string json = base;
  const std::string quoted = "\"dna_leakage_outlier_amp\": ";
  const std::size_t begin = json.find(quoted) + quoted.size();
  json.replace(begin, json.find_first_of(",}", begin) - begin, "1e308");
  EXPECT_THROW(FaultPlan::from_json(json), ConfigError);
  cfg.dna_leakage_outlier_amp = std::numeric_limits<double>::max() / 2.0;
  cfg.dna_leakage_outlier_fraction = 1.0;
  const SiteFaultSet set = FaultPlan{cfg}.dna_site_faults(4, 4);
  for (const double value : set.value) EXPECT_TRUE(std::isfinite(value));
}

TEST(FaultPlan, RejectsInvalidConfig) {
  FaultPlanConfig cfg;
  cfg.dna_dead_fraction = -0.1;
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);
  cfg = FaultPlanConfig{};
  cfg.dna_dead_fraction = 0.7;
  cfg.dna_stuck_fraction = 0.7;  // sums beyond 1
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);
  cfg = FaultPlanConfig{};
  cfg.link.drop_prob = 1.5;
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);
  cfg = FaultPlanConfig{};
  cfg.link.burst_length = 0;
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);
}

TEST(DefectMap, CountsAndYield) {
  DefectMap map(4, 4);
  EXPECT_DOUBLE_EQ(map.yield(), 1.0);
  map.mark(0, 0, DefectType::kDead);
  map.mark(2, 3, DefectType::kStuck);
  EXPECT_EQ(map.defect_count(), 2u);
  EXPECT_DOUBLE_EQ(map.yield(), 14.0 / 16.0);
  EXPECT_FALSE(map.good(0, 0));
  EXPECT_TRUE(map.good(1, 1));
  const auto defects = map.defects();
  ASSERT_EQ(defects.size(), 2u);
  EXPECT_EQ(defects[0], std::make_pair(0, 0));
  EXPECT_EQ(defects[1], std::make_pair(2, 3));
  EXPECT_THROW(map.at(4, 0), ConfigError);
}

TEST(DefectMap, FalseNegativesAgainstInjectedTruth) {
  SiteFaultSet truth;
  truth.rows = 2;
  truth.cols = 2;
  truth.type = {SiteFaultType::kDead, SiteFaultType::kNone,
                SiteFaultType::kStuck, SiteFaultType::kNone};
  truth.value = {0, 0, 0.5, 0};

  DefectMap map(2, 2);
  EXPECT_EQ(map.false_negatives(truth), 2u);  // nothing flagged yet
  map.mark(0, 0, DefectType::kDead);
  EXPECT_EQ(map.false_negatives(truth), 1u);
  // A type mismatch still counts as flagged.
  map.mark(1, 0, DefectType::kLeakage);
  EXPECT_EQ(map.false_negatives(truth), 0u);
}

TEST(DefectMap, MaskInterpolateUsesGoodNeighbours) {
  DefectMap map(3, 3);
  map.mark(1, 1, DefectType::kDead);
  std::vector<double> values{1, 2, 3, 4, 999, 6, 7, 8, 9};
  mask_interpolate(map, values);
  EXPECT_DOUBLE_EQ(values[4], (2.0 + 4.0 + 6.0 + 8.0) / 4.0);
  EXPECT_DOUBLE_EQ(values[0], 1.0);  // good sites untouched
}

TEST(DefectMap, MaskInterpolateIsolatedDefectGetsZero) {
  DefectMap map(1, 3);
  map.mark(0, 0, DefectType::kDead);
  map.mark(0, 1, DefectType::kDead);
  map.mark(0, 2, DefectType::kDead);
  std::vector<double> values{5, 6, 7};
  mask_interpolate(map, values);
  EXPECT_DOUBLE_EQ(values[0], 0.0);
  EXPECT_DOUBLE_EQ(values[1], 0.0);
  EXPECT_DOUBLE_EQ(values[2], 0.0);
}

TEST(DefectMap, JsonListsEveryDefect) {
  DefectMap map(2, 2);
  map.mark(0, 1, DefectType::kRailed);
  std::ostringstream os;
  map.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rows\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"railed\""), std::string::npos);
  EXPECT_NE(json.find("\"row\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"col\": 1"), std::string::npos);
}

TEST(DegradationSummary, JsonHasAllFields) {
  DegradationSummary s;
  s.yield = 0.95;
  s.masked = 6;
  s.retries = 12;
  s.bist_ok = true;
  std::ostringstream os;
  s.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"yield\": 0.95"), std::string::npos);
  EXPECT_NE(json.find("\"masked\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"retries\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"bist_ok\": true"), std::string::npos);
}

}  // namespace
}  // namespace biosense::faults
