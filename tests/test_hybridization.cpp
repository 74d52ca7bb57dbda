#include "dna/hybridization.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace biosense::dna {
namespace {

BindingSpecies species(double conc, double kd) {
  BindingSpecies s;
  s.concentration = conc;
  s.kd = kd;
  return s;
}

TEST(Hybridization, SingleSpeciesReachesLangmuirEquilibrium) {
  // theta_eq = C / (C + Kd).
  SpotKinetics kin({1e6}, {species(1e-9, 1e-9)});
  kin.hybridize(5000.0, 1.0);
  EXPECT_NEAR(kin.theta(0), 0.5, 0.01);
}

TEST(Hybridization, ApproachRateIsKaTimesCPlusKd) {
  // Relaxation time tau = 1 / (ka (C + Kd)). With ka=1e6, C=Kd=1e-9:
  // tau = 500 s; after one tau the occupancy is 63% of equilibrium.
  SpotKinetics kin({1e6}, {species(1e-9, 1e-9)});
  kin.hybridize(500.0, 0.5);
  EXPECT_NEAR(kin.theta(0) / 0.5, 1.0 - std::exp(-1.0), 0.02);
}

TEST(Hybridization, StrongBinderSaturates) {
  SpotKinetics kin({1e6}, {species(1e-9, 1e-15)});
  kin.hybridize(10000.0, 1.0);
  EXPECT_GT(kin.theta(0), 0.99);
}

TEST(Hybridization, WeakBinderStaysLow) {
  SpotKinetics kin({1e6}, {species(1e-9, 1e-6)});
  kin.hybridize(10000.0, 1.0);
  EXPECT_LT(kin.theta(0), 0.01);
}

class HybridizationWash : public ::testing::TestWithParam<double> {};

TEST_P(HybridizationWash, WashOffFollowsDissociationRate) {
  // Property across Kd: after a wash of duration t the surviving fraction
  // is exp(-ka Kd t) of the pre-wash occupancy.
  const double kd = GetParam();
  const double ka = 1e6;
  SpotKinetics kin({ka}, {species(1e-9, kd)});
  kin.hybridize(3600.0, 1.0);
  const double before = kin.theta(0);
  const double t_wash = 60.0;
  kin.wash(t_wash, 0.5);
  const double expected = before * std::exp(-ka * kd * t_wash);
  EXPECT_NEAR(kin.theta(0), expected, 0.05 * before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Kds, HybridizationWash,
                         ::testing::Values(1e-12, 1e-10, 3e-9, 1e-8, 1e-7));

TEST(Hybridization, WashDiscriminatesMatchFromMismatch) {
  // The Fig. 2 story end-to-end: matched duplex (tiny Kd) survives the
  // wash, mismatched duplex (large Kd) is removed.
  const double ka = 1e6;
  SpotKinetics match({ka}, {species(1e-9, 1e-15)});
  SpotKinetics mismatch({ka}, {species(1e-9, 3e-7)});
  match.hybridize(3600.0, 1.0);
  mismatch.hybridize(3600.0, 1.0);
  match.wash(120.0, 1.0);
  mismatch.wash(120.0, 1.0);
  EXPECT_GT(match.theta(0), 0.9);
  EXPECT_LT(mismatch.theta(0), 1e-6);
}

TEST(Hybridization, CompetitionConservesSiteFraction) {
  SpotKinetics kin({1e6}, {species(5e-9, 1e-10), species(5e-9, 1e-10),
                           species(5e-9, 1e-10)});
  kin.hybridize(10000.0, 1.0);
  EXPECT_LE(kin.total_theta(), 1.0 + 1e-9);
  // Symmetric species end up with equal occupancy.
  EXPECT_NEAR(kin.theta(0), kin.theta(1), 0.01);
  EXPECT_NEAR(kin.theta(1), kin.theta(2), 0.01);
}

TEST(Hybridization, CompetitiveEquilibriumFormula) {
  SpotKinetics kin({1e6}, {species(1e-9, 1e-9), species(4e-9, 2e-9)});
  // theta_i = (C_i/Kd_i) / (1 + sum C_j/Kd_j)
  const double x0 = 1e-9 / 1e-9;
  const double x1 = 4e-9 / 2e-9;
  kin.hybridize(20000.0, 1.0);
  EXPECT_NEAR(kin.theta(0), x0 / (1.0 + x0 + x1), 0.02);
  EXPECT_NEAR(kin.theta(1), x1 / (1.0 + x0 + x1), 0.02);
}

TEST(Hybridization, StrongerCompetitorWins) {
  SpotKinetics kin({1e6}, {species(1e-9, 1e-12), species(1e-9, 1e-8)});
  kin.hybridize(20000.0, 1.0);
  EXPECT_GT(kin.theta(0), 10.0 * kin.theta(1));
}

TEST(Hybridization, RehybridizationAfterWashRestoresConcentration) {
  SpotKinetics kin({1e6}, {species(1e-9, 1e-9)});
  kin.hybridize(2000.0, 1.0);
  kin.wash(10.0, 1.0);
  const double after_wash = kin.theta(0);
  kin.hybridize(5000.0, 1.0);  // concentrations restored
  EXPECT_GT(kin.theta(0), after_wash);
  EXPECT_NEAR(kin.theta(0), 0.5, 0.02);
}

TEST(Hybridization, StiffWashIsStable) {
  // Very weak binder: k_d = ka * Kd = 1e6 * 1e-3 = 1000/s, stepped at 1 s.
  SpotKinetics kin({1e6}, {species(1e-6, 1e-3)});
  kin.hybridize(10.0, 1.0);
  kin.wash(10.0, 1.0);
  EXPECT_GE(kin.theta(0), 0.0);
  EXPECT_LT(kin.theta(0), 1e-6);
}

TEST(Hybridization, RejectsInvalidSpecies) {
  EXPECT_THROW(SpotKinetics({1e6}, {species(-1.0, 1e-9)}), ConfigError);
  EXPECT_THROW(SpotKinetics({1e6}, {species(1e-9, 0.0)}), ConfigError);
  EXPECT_THROW(SpotKinetics({0.0}, {species(1e-9, 1e-9)}), ConfigError);
}

}  // namespace
}  // namespace biosense::dna
