#include "dna/thermodynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biosense::dna {
namespace {

constexpr double kKcal = 4184.0;

ThermoConditions at_1m_na() {
  ThermoConditions c;
  c.na_molar = 1.0;  // no salt correction -> matches published tables
  c.temp_k = 310.15;
  return c;
}

TEST(Thermo, KnownDuplexFreeEnergy) {
  // SantaLucia 1998 worked example: 5'-CGTTGA-3' at 1 M NaCl, 37 C.
  // Unified parameters give dG37 ~ -5.35 kcal/mol for the duplex with
  // initiation; we verify our sum lands close to the hand computation:
  // NN steps CG, GT, TT, TG, GA plus init(C) + init(A).
  const Sequence s("CGTTGA");
  const auto e = duplex_energy(s, at_1m_na());
  const double dg37_kcal = e.dg(310.15) / kKcal;
  // Hand sum: CG(-2.17) GT(-1.44) TT(-1.00) TG(-1.45) GA(-1.30)
  //          + initGC(0.98) + initAT(1.03) ~ -5.35 kcal/mol.
  EXPECT_NEAR(dg37_kcal, -5.35, 0.25);
}

TEST(Thermo, GcRichDuplexIsMoreStable) {
  const ThermoConditions c = at_1m_na();
  const double dg_gc = duplex_dg(Sequence("GCGCGCGCGCGCGCGCGCGC"), 0, c);
  const double dg_at = duplex_dg(Sequence("ATATATATATATATATATAT"), 0, c);
  EXPECT_LT(dg_gc, dg_at);  // more negative = more stable
}

TEST(Thermo, LongerDuplexIsMoreStable) {
  const ThermoConditions c = at_1m_na();
  const double dg15 = duplex_dg(Sequence("ACGTACGTACGTACG"), 0, c);
  const double dg30 = duplex_dg(Sequence("ACGTACGTACGTACGACGTACGTACGTACG"), 0, c);
  EXPECT_LT(dg30, dg15);
}

class ThermoMismatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThermoMismatch, EachMismatchDestabilizesByPenalty) {
  const std::size_t mm = GetParam();
  const ThermoConditions c = at_1m_na();
  const Sequence probe("ACGTTGCAGGTCAATGCCTA");
  const double dg0 = duplex_dg(probe, 0, c);
  const double dgm = duplex_dg(probe, mm, c);
  EXPECT_NEAR(dgm - dg0, static_cast<double>(mm) * c.mismatch_penalty, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Mismatches, ThermoMismatch,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u));

TEST(Thermo, DissociationConstantGrowsWithMismatches) {
  const ThermoConditions c = at_1m_na();
  const Sequence probe("ACGTTGCAGGTCAATGCCTA");
  double prev = 0.0;
  for (std::size_t mm = 0; mm <= 6; ++mm) {
    const double kd = dissociation_constant(probe, mm, c);
    EXPECT_GT(kd, prev);
    prev = kd;
  }
  // A perfect 20-mer is extremely tight (Kd far below picomolar) while 4+
  // mismatches push it into the detectable-washout regime.
  EXPECT_LT(dissociation_constant(probe, 0, c), 1e-15);
  EXPECT_GT(dissociation_constant(probe, 4, c), 1e-9);
}

TEST(Thermo, SaltLoweringDestabilizes) {
  ThermoConditions low = at_1m_na();
  low.na_molar = 0.05;
  const ThermoConditions high = at_1m_na();
  const Sequence probe("ACGTTGCAGGTCAATGCCTA");
  // Lower ionic strength -> more electrostatic repulsion -> less stable.
  EXPECT_GT(duplex_dg(probe, 0, low), duplex_dg(probe, 0, high));
}

TEST(Thermo, ProbesLikeThePaper) {
  // Fig. 2 caption: real probes are 15-40 bases. Check the whole range
  // produces sane, increasingly stable duplexes.
  Rng rng(3);
  const auto c = at_1m_na();
  double prev_dg = 0.0;
  for (std::size_t len : {15u, 20u, 30u, 40u}) {
    const Sequence probe = Sequence::random(len, rng);
    const double dg = duplex_dg(probe, 0, c);
    EXPECT_LT(dg, prev_dg);
    prev_dg = dg;
  }
}

TEST(Thermo, RejectsDegenerateInputs) {
  EXPECT_THROW(duplex_energy(Sequence("A"), at_1m_na()), ConfigError);
  ThermoConditions c = at_1m_na();
  c.na_molar = 0.0;
  EXPECT_THROW(duplex_energy(Sequence("ACGT"), c), ConfigError);
}

}  // namespace
}  // namespace biosense::dna
