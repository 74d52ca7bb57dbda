#include "dnachip/serial.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::dnachip {

namespace {

constexpr unsigned kDataFrameBits = 24;

/// One 24-bit data frame: the word followed by its CRC-8.
std::uint64_t data_frame(std::uint16_t w) {
  const std::uint8_t pair[2] = {static_cast<std::uint8_t>(w >> 8),
                                static_cast<std::uint8_t>(w & 0xff)};
  return (std::uint64_t{w} << 8) | crc8(pair, 2);
}

/// The word of a 24-bit data frame whose CRC checks out.
bool frame_word(std::uint64_t frame, std::uint16_t& word) {
  word = static_cast<std::uint16_t>(frame >> 8);
  return data_frame(word) == frame;
}

// Eight 24-bit frames fill exactly three 64-bit stream words, so the bulk
// of a data stream is packed and unpacked a group at a time with fixed
// shifts. Frame j of a group occupies group bits [24 j, 24 j + 24).
constexpr std::size_t kGroupFrames = 8;
constexpr std::uint64_t kFrameMask = (std::uint64_t{1} << kDataFrameBits) - 1;

void append_group(const std::uint64_t (&f)[kGroupFrames], BitStream& bits) {
  bits.append((f[0] << 40) | (f[1] << 16) | (f[2] >> 8), 64);
  bits.append((f[2] << 56) | (f[3] << 32) | (f[4] << 8) | (f[5] >> 16), 64);
  bits.append((f[5] << 48) | (f[6] << 24) | f[7], 64);
}

/// Frames [first, first + count) of `bits` (count <= 8, first a multiple
/// of 8, every frame complete).
void read_group(const BitStream& bits, std::size_t first, std::size_t count,
                std::uint64_t (&f)[kGroupFrames]) {
  const std::size_t pos = first * kDataFrameBits;
  if (count < kGroupFrames) {
    for (std::size_t j = 0; j < count; ++j) {
      f[j] = bits.read(pos + j * kDataFrameBits, kDataFrameBits);
    }
    return;
  }
  const std::uint64_t a = bits.read(pos, 64);
  const std::uint64_t b = bits.read(pos + 64, 64);
  const std::uint64_t c = bits.read(pos + 128, 64);
  f[0] = a >> 40;
  f[1] = (a >> 16) & kFrameMask;
  f[2] = ((a << 8) | (b >> 56)) & kFrameMask;
  f[3] = (b >> 32) & kFrameMask;
  f[4] = (b >> 8) & kFrameMask;
  f[5] = ((b << 16) | (c >> 48)) & kFrameMask;
  f[6] = (c >> 24) & kFrameMask;
  f[7] = c & kFrameMask;
}

}  // namespace

const char* chip_error_name(ChipError err) {
  switch (err) {
    case ChipError::kNone: return "none";
    case ChipError::kBadSite: return "bad_site";
    case ChipError::kBadGate: return "bad_gate";
    case ChipError::kBadDacCode: return "bad_dac_code";
    case ChipError::kCrcFailure: return "crc_failure";
    case ChipError::kRetriesExhausted: return "retries_exhausted";
    case ChipError::kTimeout: return "timeout";
    case ChipError::kMalformed: return "malformed";
    case ChipError::kNotCalibrated: return "not_calibrated";
    case ChipError::kBadArgument: return "bad_argument";
  }
  return "unknown";
}

void BitStream::resize(std::size_t bits) {
  words_.resize((bits + 63) / 64, 0);
  if (bits < size_ && bits % 64 != 0) {
    words_.back() &= ~std::uint64_t{0} << (64 - bits % 64);
  }
  size_ = bits;
}

BitStream encode_command(const CommandFrame& cmd) {
  const std::uint8_t bytes[3] = {static_cast<std::uint8_t>(cmd.opcode),
                                 static_cast<std::uint8_t>(cmd.payload >> 8),
                                 static_cast<std::uint8_t>(cmd.payload & 0xff)};
  BitStream bits;
  bits.append((std::uint64_t{bytes[0]} << 24) | (std::uint64_t{cmd.payload} << 8) |
                  crc8(bytes, 3),
              32);
  return bits;
}

Result<CommandFrame, ChipError> decode_command(const BitStream& bits) {
  using R = Result<CommandFrame, ChipError>;
  if (bits.size() != 32) return R::err(ChipError::kMalformed);
  const std::uint64_t v = bits.read(0, 32);
  const std::uint8_t bytes[3] = {static_cast<std::uint8_t>(v >> 24),
                                 static_cast<std::uint8_t>(v >> 16),
                                 static_cast<std::uint8_t>(v >> 8)};
  if (crc8(bytes, 3) != static_cast<std::uint8_t>(v)) {
    return R::err(ChipError::kCrcFailure);
  }
  if (bytes[0] > static_cast<std::uint8_t>(Opcode::kSelfTest)) {
    return R::err(ChipError::kMalformed);
  }
  CommandFrame cmd;
  cmd.opcode = static_cast<Opcode>(bytes[0]);
  cmd.payload = static_cast<std::uint16_t>(v >> 8);
  return cmd;
}

BitStream encode_data(const std::vector<std::uint16_t>& words) {
  BitStream bits;
  encode_data_into(words, bits);
  return bits;
}

void encode_data_into(const std::vector<std::uint16_t>& words,
                      BitStream& bits) {
  bits.clear();
  bits.reserve(words.size() * kDataFrameBits);
  std::size_t i = 0;
  for (; i + kGroupFrames <= words.size(); i += kGroupFrames) {
    std::uint64_t f[kGroupFrames];
    for (std::size_t j = 0; j < kGroupFrames; ++j) {
      f[j] = data_frame(words[i + j]);
    }
    append_group(f, bits);
  }
  for (; i < words.size(); ++i) {
    bits.append(data_frame(words[i]), kDataFrameBits);
  }
}

Result<std::vector<std::uint16_t>, ChipError> decode_data(
    const BitStream& bits) {
  using R = Result<std::vector<std::uint16_t>, ChipError>;
  if (bits.size() % kDataFrameBits != 0) return R::err(ChipError::kMalformed);
  std::vector<std::uint16_t> words(bits.size() / kDataFrameBits);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (!frame_word(bits.read(i * kDataFrameBits, kDataFrameBits), words[i])) {
      return R::err(ChipError::kCrcFailure);
    }
  }
  return words;
}

void WordMerger::reset(std::size_t expected) {
  expected_ = expected;
  filled_ = 0;
  words_.assign(expected, 0);
  valid_.assign((expected + 63) / 64, 0);
}

std::size_t WordMerger::absorb(const BitStream& bits) {
  const std::size_t n = std::min(bits.size() / kDataFrameBits, expected_);
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < n; i += kGroupFrames) {
    // A group of eight words never straddles a 64-word validity word.
    const std::size_t count = std::min(kGroupFrames, n - i);
    std::uint64_t& valid = valid_[i / 64];
    const unsigned shift = static_cast<unsigned>(i % 64);
    const std::uint64_t missing =
        ~(valid >> shift) & ((std::uint64_t{1} << count) - 1);
    if (missing == 0) continue;  // already complete: skip the CRC work
    std::uint64_t f[kGroupFrames];
    read_group(bits, i, count, f);
    std::uint64_t got = 0;
    for (std::size_t j = 0; j < count; ++j) {
      std::uint16_t w = 0;
      if (((missing >> j) & 1u) != 0 && frame_word(f[j], w)) {
        words_[i + j] = w;
        got |= std::uint64_t{1} << j;
      }
    }
    valid |= got << shift;
    fresh += static_cast<std::size_t>(std::popcount(got));
  }
  filled_ += fresh;
  return fresh;
}

void WordMerger::extract(std::vector<std::uint16_t>& out) const {
  require(complete(), "WordMerger: extract before the frame completed");
  out.assign(words_.begin(), words_.end());
}

double retry_backoff(const RetryPolicy& policy, int attempt) {
  double backoff = policy.backoff_base_s;
  for (int i = 1; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  return backoff;
}

BitStream encode_ack(Opcode op) {
  return encode_data({kAckMagic, static_cast<std::uint16_t>(op)});
}

BitStream encode_nack(ChipError err) {
  return encode_data({kNackMagic, static_cast<std::uint16_t>(err)});
}

SerialLink::SerialLink(double bit_error_rate, Rng rng)
    : ber_(bit_error_rate), rng_(rng) {
  require(bit_error_rate >= 0.0 && bit_error_rate < 1.0,
          "SerialLink: BER must be in [0,1)");
}

void SerialLink::inject_faults(const faults::LinkFaultModel& model) {
  model.validate();
  faults_ = model;
  has_frame_faults_ = true;
  if (model.bit_error_rate > 0.0) ber_ = model.bit_error_rate;
}

void SerialLink::transfer(const BitStream& bits, BitStream& out) {
  BIOSENSE_SPAN("serial.transfer");
  ++stats_.frames;
  BIOSENSE_COUNT("serial.frames", 1);
  last_event_ = LinkEvent::kOk;
  out = bits;
  if (has_frame_faults_ && !out.empty()) {
    // One frame-level fate per transfer, drawn in a fixed order so a given
    // seed always produces the same fault sequence.
    if (faults_.timeout_prob > 0.0 && rng_.bernoulli(faults_.timeout_prob)) {
      last_event_ = LinkEvent::kTimeout;
      ++stats_.timeouts;
      BIOSENSE_COUNT("serial.timeouts", 1);
      out.clear();
      return;
    }
    if (faults_.drop_prob > 0.0 && rng_.bernoulli(faults_.drop_prob)) {
      last_event_ = LinkEvent::kDropped;
      ++stats_.drops;
      BIOSENSE_COUNT("serial.drops", 1);
      out.clear();
      return;
    }
    if (faults_.truncate_prob > 0.0 && out.size() > 1 &&
        rng_.bernoulli(faults_.truncate_prob)) {
      last_event_ = LinkEvent::kTruncated;
      ++stats_.truncations;
      BIOSENSE_COUNT("serial.truncations", 1);
      const auto keep = static_cast<std::size_t>(rng_.uniform_int(
          1, static_cast<std::int64_t>(out.size()) - 1));
      out.resize(keep);
    }
    if (faults_.burst_prob > 0.0 && rng_.bernoulli(faults_.burst_prob) &&
        !out.empty()) {
      if (last_event_ == LinkEvent::kOk) last_event_ = LinkEvent::kBurst;
      ++stats_.bursts;
      BIOSENSE_COUNT("serial.bursts", 1);
      const auto start = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(out.size()) - 1));
      const auto end =
          std::min(out.size(), start + static_cast<std::size_t>(
                                           faults_.burst_length));
      for (std::size_t i = start; i < end; ++i) out.flip(i);
      stats_.bit_flips += end - start;
      BIOSENSE_COUNT("serial.bit_flips", end - start);
    }
  }
  if (ber_ > 0.0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (rng_.bernoulli(ber_)) {
        out.flip(i);
        ++stats_.bit_flips;
        BIOSENSE_COUNT("serial.bit_flips", 1);
      }
    }
  }
  bits_transferred_ += out.size();
}

}  // namespace biosense::dnachip
