#include "dna/sequence.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace biosense::dna {
namespace {

TEST(Sequence, ParseAndPrintRoundtrip) {
  Sequence s("ACGTacgt");
  EXPECT_EQ(s.str(), "ACGTACGT");
  EXPECT_EQ(s.size(), 8u);
}

TEST(Sequence, RejectsInvalidCharacters) {
  EXPECT_THROW(Sequence("ACGX"), ConfigError);
  EXPECT_THROW(Sequence("AC GT"), ConfigError);
}

TEST(Sequence, BaseComplementPairs) {
  EXPECT_EQ(complement(Base::kA), Base::kT);
  EXPECT_EQ(complement(Base::kT), Base::kA);
  EXPECT_EQ(complement(Base::kC), Base::kG);
  EXPECT_EQ(complement(Base::kG), Base::kC);
}

TEST(Sequence, ComplementIsInvolution) {
  Rng rng(1);
  const Sequence s = Sequence::random(50, rng);
  EXPECT_EQ(s.reverse_complement().reverse_complement(), s);
}

TEST(Sequence, ReverseComplementKnownValue) {
  EXPECT_EQ(Sequence("ATGC").reverse_complement().str(), "GCAT");
}

TEST(Sequence, PerfectHybridizationHasZeroMismatches) {
  Rng rng(2);
  const Sequence probe = Sequence::random(25, rng);
  const Sequence target = probe.reverse_complement();
  EXPECT_EQ(probe.mismatches_when_hybridized(target), 0u);
}

TEST(Sequence, MismatchCountingExact) {
  const Sequence probe("AAAA");
  // Perfect partner of AAAA is TTTT.
  EXPECT_EQ(probe.mismatches_when_hybridized(Sequence("TTTT")), 0u);
  EXPECT_EQ(probe.mismatches_when_hybridized(Sequence("TTTA")), 1u);
  EXPECT_EQ(probe.mismatches_when_hybridized(Sequence("GGGG")), 4u);
}

TEST(Sequence, MismatchesRequireEqualLength) {
  EXPECT_THROW(
      Sequence("ACGT").mismatches_when_hybridized(Sequence("ACG")),
      ConfigError);
}

class SequenceMismatchInjection : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(SequenceMismatchInjection, WithMismatchesProducesExactCount) {
  // Property: injecting k substitutions into the perfect partner yields a
  // duplex with exactly k mismatches.
  const std::size_t k = GetParam();
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence probe = Sequence::random(30, rng);
    const Sequence partner = probe.reverse_complement().with_mismatches(k, rng);
    EXPECT_EQ(probe.mismatches_when_hybridized(partner), k);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, SequenceMismatchInjection,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 15u));

TEST(Sequence, BestWindowFindsEmbeddedSite) {
  Rng rng(5);
  const Sequence probe = Sequence::random(20, rng);
  // Build a long target containing the probe's perfect partner mid-way.
  const Sequence site = probe.reverse_complement();
  Sequence left = Sequence::random(80, rng);
  Sequence right = Sequence::random(80, rng);
  std::vector<Base> all = left.bases();
  for (Base b : site.bases()) all.push_back(b);
  for (Base b : right.bases()) all.push_back(b);
  const Sequence target{std::vector<Base>(all)};
  const auto mm = target.best_window_mismatches(probe);
  ASSERT_TRUE(mm.has_value());
  EXPECT_EQ(*mm, 0u);
}

TEST(Sequence, BestWindowNulloptForShortTarget) {
  Rng rng(6);
  const Sequence probe = Sequence::random(20, rng);
  const Sequence target = Sequence::random(10, rng);
  EXPECT_FALSE(target.best_window_mismatches(probe).has_value());
}

TEST(Sequence, BestWindowRandomTargetHasManyMismatches) {
  Rng rng(7);
  const Sequence probe = Sequence::random(20, rng);
  const Sequence target = Sequence::random(500, rng);
  const auto mm = target.best_window_mismatches(probe);
  ASSERT_TRUE(mm.has_value());
  // A random 20-mer window matches ~25% of bases; even the best window of
  // 481 candidates should retain several mismatches.
  EXPECT_GE(*mm, 3u);
}

TEST(Sequence, Subsequence) {
  const Sequence s("ACGTTT");
  EXPECT_EQ(s.subsequence(1, 3).str(), "CGT");
  EXPECT_THROW(s.subsequence(4, 3), ConfigError);
}

TEST(Sequence, RandomIsDeterministicPerSeed) {
  Rng a(9), b(9);
  EXPECT_EQ(Sequence::random(40, a), Sequence::random(40, b));
}

TEST(Sequence, WithMismatchesRejectsTooMany) {
  Rng rng(1);
  EXPECT_THROW(Sequence("ACGT").with_mismatches(5, rng), ConfigError);
}

}  // namespace
}  // namespace biosense::dna
