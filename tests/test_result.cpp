// Result<T, E>: the repo-wide expected-style error convention (DESIGN.md
// §12.7) — value/error duality, the void specialization, and the
// monadic-free ergonomics fallible chip APIs rely on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/result.hpp"
#include "dnachip/serial.hpp"

namespace biosense {
namespace {

using dnachip::ChipError;

Result<int, ChipError> parse_positive(int v) {
  using R = Result<int, ChipError>;
  if (v <= 0) return R::err(ChipError::kBadArgument);
  return v;
}

Result<void, ChipError> check_positive(int v) {
  using R = Result<void, ChipError>;
  if (v <= 0) return R::err(ChipError::kBadArgument);
  return {};
}

TEST(Result, ValueCase) {
  const auto r = parse_positive(7);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(-1), 7);
  // error() on a success is the neutral error value, not UB.
  EXPECT_EQ(r.error(), ChipError::kNone);
}

TEST(Result, ErrorCase) {
  const auto r = parse_positive(-3);
  EXPECT_FALSE(r.has_value());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), ChipError::kBadArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorThrows) {
  const auto r = parse_positive(0);
  EXPECT_THROW((void)r.value(), ConfigError);
}

TEST(Result, VoidSpecialization) {
  const auto ok = check_positive(1);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok.error(), ChipError::kNone);
  ok.value();  // does not throw

  const auto bad = check_positive(-1);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), ChipError::kBadArgument);
  EXPECT_THROW(bad.value(), ConfigError);
}

TEST(Result, ArrowOperatorAndMove) {
  using R = Result<std::vector<int>, ChipError>;
  R r = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 3u);
  const std::vector<int> moved = *std::move(r);
  EXPECT_EQ(moved.size(), 3u);
}

TEST(Result, ExplicitErrTagDisambiguates) {
  // A Result whose value type matches the error type still distinguishes
  // the two states via the tag.
  using R = Result<ChipError, ChipError>;
  const R as_value = R(ChipError::kCrcFailure);
  ASSERT_TRUE(as_value.has_value());
  EXPECT_EQ(*as_value, ChipError::kCrcFailure);
  const R as_error = R(kErr, ChipError::kCrcFailure);
  EXPECT_FALSE(as_error.has_value());
  EXPECT_EQ(as_error.error(), ChipError::kCrcFailure);
}

TEST(Result, MigratedSerialDecodersUseTypedErrors) {
  // decode_command on garbage: typed kMalformed, not a bool.
  dnachip::BitStream garbage;
  garbage.append(0xff, 8);
  const auto cmd = dnachip::decode_command(garbage);
  EXPECT_FALSE(cmd.has_value());
  EXPECT_EQ(cmd.error(), ChipError::kMalformed);
  EXPECT_STREQ(dnachip::chip_error_name(cmd.error()), "malformed");
}

}  // namespace
}  // namespace biosense
