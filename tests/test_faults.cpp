#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

TEST(FaultPlan, RejectsNonFiniteAmplitudes) {
  // The open-ended amplitudes have no fraction bound: infinities, NaN and
  // overflowing values must not reach the converters or channels.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double value : {inf, -inf, nan}) {
    FaultPlanConfig cfg;
    cfg.dna_leakage_outlier_amp = value;
    EXPECT_THROW(FaultPlan{cfg}, ConfigError) << "outlier amp " << value;
    cfg = FaultPlanConfig{};
    cfg.channel_gain_drift_sigma = value;
    EXPECT_THROW(FaultPlan{cfg}, ConfigError) << "drift sigma " << value;
  }

  // A finite amplitude whose 2x outlier draw would overflow is refused too.
  FaultPlanConfig cfg;
  cfg.dna_leakage_outlier_amp = 1e308;
  EXPECT_THROW(FaultPlan{cfg}, ConfigError);
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

}  // namespace
}  // namespace biosense::faults
