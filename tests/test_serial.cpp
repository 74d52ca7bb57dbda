#include "dnachip/serial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace biosense::dnachip {
namespace {

BitStream zeros(std::size_t n) {
  BitStream bits;
  bits.resize(n);
  return bits;
}

BitStream send(SerialLink& link, const BitStream& bits) {
  BitStream out;
  link.transfer(bits, out);
  return out;
}

std::size_t ones(const BitStream& bits) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) n += bits[i] ? 1 : 0;
  return n;
}

/// Words a fresh merger recovers from one decode of `bits`.
std::size_t lenient_words(const BitStream& bits, std::size_t expected) {
  WordMerger merger(expected);
  return merger.absorb(bits);
}

TEST(Crc8, KnownVectors) {
  // CRC-8/ATM (poly 0x07, init 0x00): "123456789" -> 0xF4.
  std::vector<std::uint8_t> check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc8(check), 0xF4);
  EXPECT_EQ(crc8({}), 0x00);
  EXPECT_EQ(crc8({0x00}), 0x00);
}

TEST(Crc8, TableMatchesBitSerialDefinition) {
  // The table-driven CRC must equal the polynomial's bit-serial definition
  // for every single byte and for every starting CRC (streaming form).
  const auto bit_serial = [](std::uint8_t crc, std::uint8_t byte) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ kCrc8Poly)
                         : static_cast<std::uint8_t>(crc << 1);
    }
    return crc;
  };
  for (int crc = 0; crc < 256; ++crc) {
    for (int byte = 0; byte < 256; ++byte) {
      const auto b = static_cast<std::uint8_t>(byte);
      ASSERT_EQ(crc8_update(static_cast<std::uint8_t>(crc), &b, 1),
                bit_serial(static_cast<std::uint8_t>(crc), b))
          << crc << "," << byte;
    }
  }
  constexpr std::uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  static_assert(crc8(kCheck, 9) == 0xF4);  // still usable at compile time
}

TEST(Crc8, DetectsSingleBitErrors) {
  std::vector<std::uint8_t> data{0xde, 0xad, 0xbe, 0xef};
  const auto good = crc8(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = data;
      corrupted[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc8(corrupted), good);
    }
  }
}

class SerialOpcodes : public ::testing::TestWithParam<Opcode> {};

TEST_P(SerialOpcodes, CommandRoundtrip) {
  CommandFrame cmd;
  cmd.opcode = GetParam();
  cmd.payload = 0xbeef;
  const auto bits = encode_command(cmd);
  EXPECT_EQ(bits.size(), 32u);
  const auto decoded = decode_command(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->opcode, cmd.opcode);
  EXPECT_EQ(decoded->payload, cmd.payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, SerialOpcodes,
    ::testing::Values(Opcode::kNop, Opcode::kSetDacGenerator,
                      Opcode::kSetDacCollector, Opcode::kSelectSite,
                      Opcode::kStartConversion, Opcode::kReadFrame,
                      Opcode::kAutoCalibrate, Opcode::kReadStatus,
                      Opcode::kReadSite, Opcode::kSelfTest));

TEST(Serial, CorruptedCommandRejected) {
  CommandFrame cmd{Opcode::kStartConversion, 7};
  auto bits = encode_command(cmd);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto corrupted = bits;
    corrupted.flip(i);
    EXPECT_FALSE(decode_command(corrupted).has_value()) << "bit " << i;
  }
}

TEST_P(SerialOpcodes, ExhaustiveOneAndTwoBitFlipsRejected) {
  // CRC-8 poly 0x07 has Hamming distance 4 up to 119 data bits, so EVERY
  // 1-bit and 2-bit corruption of a 32-bit command frame must be caught.
  // A flip may turn the frame into a *different valid command* only if the
  // CRC colludes — distance 4 says it cannot for <= 3 flips, so the decode
  // must fail outright.
  const auto bits = encode_command({GetParam(), 0x5a3c});
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto one = bits;
    one.flip(i);
    EXPECT_FALSE(decode_command(one).has_value()) << "flip " << i;
    for (std::size_t j = i + 1; j < bits.size(); ++j) {
      auto two = one;
      two.flip(j);
      EXPECT_FALSE(decode_command(two).has_value())
          << "flips " << i << "," << j;
    }
  }
}

TEST(Serial, ExhaustiveDataFrameFlipsRejected) {
  // Same exhaustive sweep for a 24-bit data frame: every 1-bit and 2-bit
  // flip must fail the word's CRC (strict decode and merger agree).
  const auto bits = encode_data({0xc3a5});
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto one = bits;
    one.flip(i);
    EXPECT_FALSE(decode_data(one).has_value()) << "flip " << i;
    EXPECT_EQ(lenient_words(one, 1), 0u) << "flip " << i;
    for (std::size_t j = i + 1; j < bits.size(); ++j) {
      auto two = one;
      two.flip(j);
      EXPECT_FALSE(decode_data(two).has_value()) << "flips " << i << "," << j;
      EXPECT_EQ(lenient_words(two, 1), 0u) << "flips " << i << "," << j;
    }
  }
}

TEST(Serial, TruncatedFramesRejectedWithoutCrash) {
  const auto cmd = encode_command({Opcode::kReadFrame, 0});
  const auto data = encode_data({0x1234, 0xabcd});
  for (std::size_t n = 0; n < cmd.size(); ++n) {
    auto cut = cmd;
    cut.resize(n);
    EXPECT_FALSE(decode_command(cut).has_value()) << "length " << n;
  }
  for (std::size_t n = 0; n < data.size(); ++n) {
    auto cut = data;
    cut.resize(n);
    if (n % 24 != 0) {
      EXPECT_FALSE(decode_data(cut).has_value()) << "length " << n;
    }
    // The lenient decode keeps whole leading frames and drops the tail.
    EXPECT_EQ(lenient_words(cut, 2), n / 24) << "length " << n;
  }
}

TEST(Serial, TruncationAtEveryBitAcrossWords) {
  // Ten data frames span 240 bits, four 64-bit words: cut at every offset,
  // the stream must equal one built from the same leading bits, strict
  // decode must reject any ragged cut, and the merger must keep exactly
  // the whole leading frames.
  std::vector<std::uint16_t> words;
  for (std::uint16_t k = 0; k < 10; ++k) {
    words.push_back(static_cast<std::uint16_t>(0x9e37 * (k + 1)));
  }
  const auto bits = encode_data(words);
  ASSERT_EQ(bits.size(), 240u);
  for (std::size_t n = 0; n <= bits.size(); ++n) {
    auto cut = bits;
    cut.resize(n);
    ASSERT_EQ(cut.size(), n);
    BitStream rebuilt;
    for (std::size_t i = 0; i < n; ++i) rebuilt.append(bits[i] ? 1 : 0, 1);
    EXPECT_EQ(cut, rebuilt) << "length " << n;
    // Growing back pads with zeros, never with the cut bits.
    auto regrown = cut;
    regrown.resize(bits.size());
    EXPECT_EQ(ones(regrown), ones(cut)) << "length " << n;
    const auto strict = decode_data(cut);
    EXPECT_EQ(strict.has_value(), n % 24 == 0) << "length " << n;
    WordMerger merger(words.size());
    EXPECT_EQ(merger.absorb(cut), n / 24) << "length " << n;
    for (std::size_t w = 0; w < words.size(); ++w) {
      EXPECT_EQ(merger.valid(w), w < n / 24) << "length " << n;
      EXPECT_EQ(merger.words()[w], w < n / 24 ? words[w] : 0u);
    }
  }
}

TEST(Serial, LenientDecodeIgnoresTrailingPartialFrame) {
  auto bits = encode_data({0x0102, 0x0304, 0x0506});
  bits.resize(2 * 24 + 10);  // two whole frames + 10 bits of the third
  WordMerger merger(3);
  EXPECT_EQ(merger.absorb(bits), 2u);
  EXPECT_FALSE(merger.complete());
  EXPECT_TRUE(merger.valid(0));
  EXPECT_TRUE(merger.valid(1));
  EXPECT_FALSE(merger.valid(2));
  EXPECT_EQ(merger.words()[2], 0u);
}

TEST(Serial, LenientDecodeRecoversValidWordsAroundCorruptOnes) {
  auto bits = encode_data({10, 20, 30});
  bits.flip(30);  // corrupt only the middle word
  EXPECT_FALSE(decode_data(bits).has_value());  // strict: all-or-nothing
  WordMerger merger(3);
  EXPECT_EQ(merger.absorb(bits), 2u);
  EXPECT_TRUE(merger.valid(0));
  EXPECT_EQ(merger.words()[0], 10u);
  EXPECT_FALSE(merger.valid(1));
  EXPECT_TRUE(merger.valid(2));
  EXPECT_EQ(merger.words()[2], 30u);
}

TEST(WordMerger, FirstValidValueWinsAcrossAttempts) {
  const std::vector<std::uint16_t> words{11, 22, 33, 44};
  auto first = encode_data(words);
  first.flip(24 + 3);   // word 1 corrupt
  first.flip(72 + 20);  // word 3 corrupt
  auto second = encode_data({99, 22, 99, 44});
  second.flip(4);  // word 0 corrupt on the retry

  WordMerger merger(words.size());
  EXPECT_EQ(merger.absorb(first), 2u);
  EXPECT_EQ(merger.absorb(second), 2u);  // words 1 and 3 newly recovered
  ASSERT_TRUE(merger.complete());
  std::vector<std::uint16_t> out;
  merger.extract(out);
  // Word 2 arrived intact first; the retry's different value is ignored.
  EXPECT_EQ(out, words);
  EXPECT_EQ(merger.absorb(encode_data(words)), 0u);

  merger.reset(2);  // a new transaction starts empty
  EXPECT_EQ(merger.filled(), 0u);
  EXPECT_FALSE(merger.valid(0));
  EXPECT_EQ(merger.absorb(encode_data(words)), 2u);  // extra words ignored
  EXPECT_TRUE(merger.complete());
}

TEST(Serial, AckNackFramesRoundtrip) {
  const auto ack = decode_data(encode_ack(Opcode::kStartConversion));
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->size(), 2u);
  EXPECT_EQ((*ack)[0], kAckMagic);
  EXPECT_EQ((*ack)[1], static_cast<std::uint16_t>(Opcode::kStartConversion));

  const auto nack = decode_data(encode_nack(ChipError::kBadSite));
  ASSERT_TRUE(nack.has_value());
  ASSERT_EQ(nack->size(), 2u);
  EXPECT_EQ((*nack)[0], kNackMagic);
  EXPECT_EQ((*nack)[1], static_cast<std::uint16_t>(ChipError::kBadSite));
}

TEST(Serial, WrongLengthCommandRejected) {
  EXPECT_FALSE(decode_command(zeros(31)).has_value());
}

TEST(Serial, DataFramesRoundtrip) {
  const std::vector<std::uint16_t> words{0, 1, 0xffff, 0x1234, 42};
  const auto bits = encode_data(words);
  EXPECT_EQ(bits.size(), words.size() * 24u);
  const auto decoded = decode_data(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, words);
}

TEST(Serial, DataFramesAreMsbFirstWordThenCrc) {
  // Wire order: the word's 16 bits, most significant first, then its CRC.
  const auto bits = encode_data({0x8001});
  const std::uint8_t pair[2] = {0x80, 0x01};
  const std::uint8_t crc = crc8(pair, 2);
  ASSERT_EQ(bits.size(), 24u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(bits[i], i == 0 || i == 15) << "bit " << i;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(bits[16 + i], ((crc >> (7 - i)) & 1u) != 0) << "crc bit " << i;
  }
}

TEST(Serial, CorruptedDataRejected) {
  auto bits = encode_data({0xabcd});
  bits.flip(5);
  EXPECT_FALSE(decode_data(bits).has_value());
}

TEST(Serial, RaggedDataRejected) {
  EXPECT_FALSE(decode_data(zeros(25)).has_value());
}

TEST(BitStream, AppendAndReadAcrossWordBoundaries) {
  // Fields of every width from 1 to 64 bits, appended back to back, land
  // at arbitrary offsets; reading each back must return it unchanged.
  Rng rng(17);
  BitStream bits;
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  for (unsigned n = 1; n <= 64; ++n) {
    const std::uint64_t v = n == 64 ? rng.next_u64()
                                    : rng.next_u64() & ((1ULL << n) - 1);
    fields.emplace_back(v, n);
    bits.append(v, n);
  }
  std::size_t pos = 0;
  for (const auto& [v, n] : fields) {
    EXPECT_EQ(bits.read(pos, n), v) << "width " << n;
    for (unsigned b = 0; b < n; ++b) {
      EXPECT_EQ(bits[pos + b], ((v >> (n - 1 - b)) & 1u) != 0);
    }
    pos += n;
  }
  EXPECT_EQ(bits.size(), pos);
  auto copy = bits;
  EXPECT_EQ(copy, bits);
  copy.flip(pos - 1);
  EXPECT_FALSE(copy == bits);
  copy.clear();
  EXPECT_TRUE(copy.empty());
}

TEST(SerialLink, PerfectLinkPreservesBits) {
  SerialLink link(0.0, Rng(1));
  const auto bits = encode_data({0x55aa, 0x1234});
  EXPECT_EQ(send(link, bits), bits);
  EXPECT_EQ(link.bits_transferred(), bits.size());
}

TEST(SerialLink, BitErrorRateFlipsExpectedFraction) {
  SerialLink link(0.01, Rng(2));
  const auto out = send(link, zeros(100000));
  EXPECT_NEAR(static_cast<double>(ones(out)) / 100000.0, 0.01, 0.002);
}

TEST(SerialLink, OneBernoulliDrawPerDeliveredBitInBitOrder) {
  // The per-bit error model is exactly one bernoulli(ber) draw per bit,
  // in bit order, flipping the bit on success — checked draw for draw
  // against the generator, including rates whose 2^53 scaling is not an
  // integer and a rate high enough to flip whole words.
  for (const double ber : {1e-3, 1.0 / 3.0, 0.37, 0.999, 1e-12}) {
    const std::size_t n = 3 * 64 + 17;
    SerialLink link(ber, Rng(23));
    const auto out = send(link, zeros(n));
    Rng reference(23);
    std::uint64_t flips = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool flip = reference.bernoulli(ber);
      flips += flip ? 1 : 0;
      ASSERT_EQ(out[i], flip) << "ber " << ber << " bit " << i;
    }
    EXPECT_EQ(link.stats().bit_flips, flips);
    // Both generators consumed the same number of draws.
    EXPECT_EQ(send(link, zeros(1))[0], reference.bernoulli(ber));
  }
}

/// Reference link: the documented fate order and per-bit model over a
/// plain one-byte-per-bit buffer.
std::vector<std::uint8_t> reference_transfer(Rng& rng,
                                             const faults::LinkFaultModel& m,
                                             double ber,
                                             std::vector<std::uint8_t> bits) {
  if (!bits.empty()) {
    if (m.timeout_prob > 0.0 && rng.bernoulli(m.timeout_prob)) return {};
    if (m.drop_prob > 0.0 && rng.bernoulli(m.drop_prob)) return {};
    if (m.truncate_prob > 0.0 && bits.size() > 1 &&
        rng.bernoulli(m.truncate_prob)) {
      bits.resize(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(bits.size()) - 1)));
    }
    if (m.burst_prob > 0.0 && rng.bernoulli(m.burst_prob) && !bits.empty()) {
      const auto start = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bits.size()) - 1));
      const std::size_t end = std::min(
          bits.size(), start + static_cast<std::size_t>(m.burst_length));
      for (std::size_t i = start; i < end; ++i) bits[i] ^= 1;
    }
  }
  if (ber > 0.0) {
    for (auto& b : bits) b ^= rng.bernoulli(ber) ? 1 : 0;
  }
  return bits;
}

TEST(SerialLink, FaultFatesFollowTheDocumentedDrawOrder) {
  faults::LinkFaultModel model;
  model.bit_error_rate = 2e-3;
  model.truncate_prob = 0.3;
  model.burst_prob = 0.4;
  model.burst_length = 37;
  model.drop_prob = 0.1;
  model.timeout_prob = 0.1;
  SerialLink link(0.0, Rng(31));
  link.inject_faults(model);
  Rng reference(31);
  Rng payload(32);
  BitStream out;
  for (int k = 0; k < 300; ++k) {
    const auto n = static_cast<std::size_t>(payload.uniform_int(0, 300));
    BitStream in;
    std::vector<std::uint8_t> plain;
    for (std::size_t i = 0; i < n; ++i) {
      const bool b = payload.bernoulli(0.5);
      in.append(b ? 1 : 0, 1);
      plain.push_back(b ? 1 : 0);
    }
    link.transfer(in, out);
    const auto want =
        reference_transfer(reference, model, model.bit_error_rate, plain);
    ASSERT_EQ(out.size(), want.size()) << "transfer " << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(out[i], want[i] != 0) << "transfer " << k << " bit " << i;
    }
  }
  const LinkStats& s = link.stats();
  EXPECT_EQ(s.frames, 300u);
  EXPECT_GT(s.timeouts, 0u);
  EXPECT_GT(s.drops, 0u);
  EXPECT_GT(s.truncations, 0u);
  EXPECT_GT(s.bursts, 0u);
}

TEST(SerialLink, NoisyLinkEventuallyCorruptsFrames) {
  SerialLink link(0.02, Rng(3));
  int rejected = 0;
  for (int k = 0; k < 200; ++k) {
    const auto bits = send(link, encode_data({0x1234}));
    if (!decode_data(bits).has_value()) ++rejected;
  }
  // 24 bits at 2% BER: ~38% of frames corrupted.
  EXPECT_GT(rejected, 30);
  EXPECT_LT(rejected, 150);
}

TEST(SerialLink, RejectsInvalidBer) {
  EXPECT_THROW(SerialLink(-0.1, Rng(1)), ConfigError);
  EXPECT_THROW(SerialLink(1.0, Rng(1)), ConfigError);
}

TEST(SerialLink, DropFaultsReturnEmptyFrames) {
  SerialLink link(0.0, Rng(4));
  faults::LinkFaultModel model;
  model.drop_prob = 0.5;
  link.inject_faults(model);
  int dropped = 0;
  for (int k = 0; k < 200; ++k) {
    if (send(link, encode_data({0x1234})).empty()) {
      EXPECT_EQ(link.last_event(), LinkEvent::kDropped);
      ++dropped;
    }
  }
  EXPECT_NEAR(dropped, 100, 30);
  EXPECT_EQ(link.stats().drops, static_cast<std::uint64_t>(dropped));
}

TEST(SerialLink, TruncationShortensFrames) {
  SerialLink link(0.0, Rng(5));
  faults::LinkFaultModel model;
  model.truncate_prob = 1.0 - 1e-9;  // probabilities live in [0,1)
  link.inject_faults(model);
  const auto bits = encode_data({0xabcd, 0x1234});
  for (int k = 0; k < 50; ++k) {
    const auto out = send(link, bits);
    EXPECT_EQ(link.last_event(), LinkEvent::kTruncated);
    EXPECT_LT(out.size(), bits.size());
    EXPECT_GE(out.size(), 1u);
    // Truncated frames must be rejected cleanly, never crash a decoder. A
    // cut landing exactly on a word boundary leaves a self-consistent but
    // shorter frame — the host catches that one by word count instead.
    const auto words = decode_data(out);
    if (out.size() % 24 == 0) {
      ASSERT_TRUE(words.has_value());
      EXPECT_LT(words->size(), 2u);
    } else {
      EXPECT_FALSE(words.has_value());
    }
  }
}

TEST(SerialLink, TimeoutsAreReportedAsEvents) {
  SerialLink link(0.0, Rng(6));
  faults::LinkFaultModel model;
  model.timeout_prob = 0.3;
  link.inject_faults(model);
  int timeouts = 0;
  for (int k = 0; k < 200; ++k) {
    const auto out = send(link, encode_data({1}));
    if (link.last_event() == LinkEvent::kTimeout) {
      EXPECT_TRUE(out.empty());
      ++timeouts;
    }
  }
  EXPECT_NEAR(timeouts, 60, 30);
  EXPECT_EQ(link.stats().timeouts, static_cast<std::uint64_t>(timeouts));
}

TEST(SerialLink, BurstsFlipContiguousBits) {
  SerialLink link(0.0, Rng(7));
  faults::LinkFaultModel model;
  model.burst_prob = 1.0 - 1e-9;
  model.burst_length = 4;
  link.inject_faults(model);
  const auto out = send(link, zeros(64));
  ASSERT_EQ(out.size(), 64u);
  int flips = 0;
  std::size_t first = out.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) {
      ++flips;
      first = std::min(first, i);
      last = i;
    }
  }
  EXPECT_EQ(link.last_event(), LinkEvent::kBurst);
  EXPECT_GE(flips, 1);
  EXPECT_LE(flips, 4);
  EXPECT_EQ(last - first + 1, static_cast<std::size_t>(flips));  // contiguous
}

TEST(SerialLink, BurstsStraddleWordBoundaries) {
  // A 20-bit burst over a 256-bit stream: wherever it starts, it flips
  // exactly the bits [start, min(n, start + 20)) — including runs that
  // cross from one 64-bit word into the next and runs clipped at the end.
  SerialLink link(0.0, Rng(8));
  faults::LinkFaultModel model;
  model.burst_prob = 1.0 - 1e-9;
  model.burst_length = 20;
  link.inject_faults(model);
  const std::size_t n = 256;
  int straddled = 0;
  int clipped = 0;
  std::uint64_t flipped = 0;
  for (int k = 0; k < 400; ++k) {
    const auto out = send(link, zeros(n));
    ASSERT_EQ(out.size(), n);
    std::size_t first = n;
    std::size_t last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i]) {
        first = std::min(first, i);
        last = i;
      }
    }
    ASSERT_LT(first, n);
    EXPECT_EQ(ones(out), last - first + 1);
    EXPECT_EQ(last - first + 1, std::min<std::size_t>(20, n - first));
    flipped += last - first + 1;
    straddled += first / 64 != last / 64 ? 1 : 0;
    clipped += last == n - 1 && last - first + 1 < 20 ? 1 : 0;
  }
  EXPECT_GT(straddled, 0);
  EXPECT_GT(clipped, 0);
  EXPECT_EQ(link.stats().bit_flips, flipped);
}

TEST(SerialLink, FaultModelBerOverridesConstructedBer) {
  SerialLink link(0.0, Rng(8));
  faults::LinkFaultModel model;
  model.bit_error_rate = 0.01;
  link.inject_faults(model);
  const auto out = send(link, zeros(100000));
  EXPECT_NEAR(static_cast<double>(ones(out)) / 100000.0, 0.01, 0.002);
}

TEST(Serial, SixPinBudget) {
  // The chip's entire digital interface is DIN + DOUT + SCLK + CS plus
  // power: commands and data must fit a single-wire stream each.
  // One full-array readout: 128 sites x 24 bits = 3072 bits + one command.
  const auto cmd = encode_command({Opcode::kReadFrame, 0});
  std::vector<std::uint16_t> frame(128, 0x1111);
  const auto data = encode_data(frame);
  EXPECT_EQ(cmd.size() + data.size(), 32u + 128u * 24u);
}

}  // namespace
}  // namespace biosense::dnachip
