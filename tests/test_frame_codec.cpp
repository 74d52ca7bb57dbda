// FrameCodec: the neural chip's 16-bit word format. A lossless roundtrip
// must be bitwise identical; lost, mismatched or missing words must be
// counted, never thrown, and decode as the documented fallbacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/wire.hpp"
#include "dnachip/serial.hpp"
#include "neurochip/array.hpp"

namespace biosense::core {
namespace {

constexpr double kLsb = 4e-3 / 1024.0;
constexpr double kGain = 37.5;
constexpr std::uint16_t kSeq = 0x2a5;

neurochip::NeuroFrame make_frame(int rows, int cols) {
  neurochip::NeuroFrame f;
  f.rows = rows;
  f.cols = cols;
  f.t = 0.123456789;
  f.masked = 3;
  const auto n = static_cast<std::size_t>(rows * cols);
  f.codes.resize(n);
  f.v_in.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Negative, small and full-width codes so both 16-bit halves matter.
    const std::int32_t code =
        i % 3 == 0 ? -static_cast<std::int32_t>(i) - 1
                   : static_cast<std::int32_t>(0x12345 * (i + 1));
    f.codes[i] = code;
    f.v_in[i] = static_cast<double>(code) * kLsb / kGain;
  }
  return f;
}

/// A frame of the right geometry whose decoded fields all start scrambled.
neurochip::NeuroFrame blank_like(const neurochip::NeuroFrame& f) {
  neurochip::NeuroFrame out = f;
  out.t = -1.0;
  out.masked = -1;
  for (auto& c : out.codes) c = 0x7eadbeef;
  for (auto& v : out.v_in) v = 99.0;
  return out;
}

/// Encodes `frame` onto the wire, applies `corrupt` to the bit stream and
/// merges it into a merger expecting `expected` words.
template <typename Corrupt>
dnachip::WordMerger transmit(const neurochip::NeuroFrame& frame,
                             std::size_t expected, Corrupt corrupt) {
  const FrameCodec codec(kLsb, kGain);
  std::vector<std::uint16_t> words;
  codec.encode(frame, kSeq, words);
  dnachip::BitStream bits = dnachip::encode_data(words);
  corrupt(bits);
  dnachip::WordMerger merged(expected);
  merged.absorb(bits);
  return merged;
}

/// Corrupts data word `w` so the merger marks it invalid.
void kill_word(dnachip::BitStream& bits, std::size_t w) { bits.flip(24 * w); }

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Words per frame: 8 header words + 2 per pixel code.
std::size_t words_for(int rows, int cols) {
  return 8 + 2 * static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols);
}

TEST(FrameCodec, LosslessRoundtripIsBitwiseIdentical) {
  const auto sent = make_frame(5, 7);
  std::vector<std::uint16_t> words;
  FrameCodec(kLsb, kGain).encode(sent, kSeq, words);
  ASSERT_EQ(words.size(), words_for(5, 7));
  const auto merged =
      transmit(sent, words_for(5, 7), [](auto&) {});
  ASSERT_TRUE(merged.complete());
  auto got = blank_like(sent);
  EXPECT_EQ(FrameCodec(kLsb, kGain).decode(merged, kSeq, got), 0u);
  EXPECT_TRUE(same_bits(got.t, sent.t));
  EXPECT_EQ(got.masked, sent.masked);
  EXPECT_EQ(got.codes, sent.codes);
  ASSERT_EQ(got.v_in.size(), sent.v_in.size());
  for (std::size_t i = 0; i < sent.v_in.size(); ++i) {
    EXPECT_TRUE(same_bits(got.v_in[i], sent.v_in[i])) << "pixel " << i;
  }
}

TEST(FrameCodec, BadHeaderWordsAreCountedLostNotThrown) {
  const auto sent = make_frame(2, 3);
  const FrameCodec codec(kLsb, kGain);
  const std::size_t n = words_for(2, 3);

  // Missing seq, rows and cols words: each counts once, pixels still decode.
  const auto missing = transmit(sent, n, [](dnachip::BitStream& bits) {
    kill_word(bits, 0);
    kill_word(bits, 1);
    kill_word(bits, 2);
  });
  auto got = blank_like(sent);
  EXPECT_EQ(codec.decode(missing, kSeq, got), 3u);
  EXPECT_EQ(got.codes, sent.codes);
  EXPECT_EQ(got.masked, sent.masked);

  // A mismatched seq tag is one lost word.
  const auto clean = transmit(sent, n, [](auto&) {});
  got = blank_like(sent);
  EXPECT_NO_THROW(EXPECT_EQ(codec.decode(clean, kSeq + 1, got), 1u));
  EXPECT_EQ(got.codes, sent.codes);

  // Swapped geometry mismatches both the rows and the cols word.
  auto transposed = blank_like(sent);
  transposed.rows = 3;
  transposed.cols = 2;
  EXPECT_EQ(codec.decode(clean, kSeq, transposed), 2u);
  EXPECT_EQ(transposed.codes, sent.codes);

  // A missing masked word or time word leaves the old value in place.
  const auto no_meta = transmit(sent, n, [](dnachip::BitStream& bits) {
    kill_word(bits, 3);
    kill_word(bits, 6);
  });
  got = blank_like(sent);
  EXPECT_EQ(codec.decode(no_meta, kSeq, got), 2u);
  EXPECT_EQ(got.masked, -1);
  EXPECT_EQ(got.t, -1.0);
}

TEST(FrameCodec, PixelMissingAHalfDecodesToZero) {
  const auto sent = make_frame(2, 3);
  const FrameCodec codec(kLsb, kGain);
  // Pixel 1 loses its hi half, pixel 4 its lo half, pixel 5 both.
  const auto merged = transmit(
      sent, words_for(2, 3), [](dnachip::BitStream& bits) {
        kill_word(bits, 8 + 2 * 1);
        kill_word(bits, 9 + 2 * 4);
        kill_word(bits, 8 + 2 * 5);
        kill_word(bits, 9 + 2 * 5);
      });
  auto got = blank_like(sent);
  EXPECT_EQ(codec.decode(merged, kSeq, got), 4u);
  for (std::size_t i = 0; i < sent.codes.size(); ++i) {
    const bool hit = i == 1 || i == 4 || i == 5;
    EXPECT_EQ(got.codes[i], hit ? 0 : sent.codes[i]) << "pixel " << i;
    EXPECT_TRUE(same_bits(got.v_in[i], hit ? 0.0 : sent.v_in[i]));
  }
}

TEST(FrameCodec, ShortWordVectorCountsTheMissingTail) {
  const auto sent = make_frame(2, 3);
  const FrameCodec codec(kLsb, kGain);
  const std::size_t n = words_for(2, 3);

  // Three words short: pixel 5 loses both halves, pixel 4 its lo half.
  const auto short3 = transmit(sent, n - 3, [](auto&) {});
  auto got = blank_like(sent);
  EXPECT_EQ(codec.decode(short3, kSeq, got), 3u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got.codes[i], sent.codes[i]);
  EXPECT_EQ(got.codes[4], 0);
  EXPECT_EQ(got.codes[5], 0);
  EXPECT_TRUE(same_bits(got.t, sent.t));

  // Only five words: the time is incomplete and every pixel is missing.
  const auto short5 = transmit(sent, 5, [](auto&) {});
  got = blank_like(sent);
  EXPECT_EQ(codec.decode(short5, kSeq, got), 3u + 2u * 6u);
  EXPECT_EQ(got.masked, sent.masked);
  EXPECT_EQ(got.t, -1.0);
  for (const std::int32_t c : got.codes) EXPECT_EQ(c, 0);

  // Nothing at all arrived: every word is lost.
  const auto none = transmit(sent, 0, [](auto&) {});
  got = blank_like(sent);
  EXPECT_EQ(codec.decode(none, kSeq, got), n);
}

}  // namespace
}  // namespace biosense::core
