// 6-pin serial digital interface of the DNA microarray chip (Fig. 4).
//
// The packaged chip exposes only power supply and a serial link:
// VDD, GND, CS (chip select), SCLK, DIN (commands), DOUT (data). Commands
// are fixed-length frames — 8-bit opcode, 16-bit payload, 8-bit CRC —
// shifted MSB first while CS is low; conversion results stream out of DOUT
// as CRC-protected data frames. Every accepted command is answered: query
// commands reply with their data, all others with a 2-word ACK frame, and
// commands carrying an invalid payload with a 2-word NACK frame — the
// host never has to guess whether silence means "rejected" or "lost".
//
// The bit transport (`SerialLink`) models an imperfect lab cable: an
// injectable per-bit error rate plus frame-level faults (error bursts,
// dropped frames, truncations, transaction timeouts) supplied by a
// `faults::LinkFaultModel`, so tests can verify that the CRC rejects
// corrupted frames and that the host protocol recovers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/crc.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::dnachip {

enum class Opcode : std::uint8_t {
  kNop = 0x00,
  kSetDacGenerator = 0x01,  // payload: DAC code for generator electrode
  kSetDacCollector = 0x02,  // payload: DAC code for collector electrode
  kSelectSite = 0x03,       // payload: (row << 8) | col
  kStartConversion = 0x04,  // payload: (seq << 8) | gate-time code
  kReadFrame = 0x05,        // payload: unused
  kAutoCalibrate = 0x06,    // payload: (seq << 8) | gate-time code
  kReadStatus = 0x07,       // payload: unused
  kReadSite = 0x08,         // payload: unused; reads the selected site only
  kSelfTest = 0x09,         // payload: (seq << 8) | (stimulus << 4) | gate
};

/// Self-test payload bit: convert with the internal test current injected
/// (clear = leakage-only sweep).
inline constexpr std::uint16_t kSelfTestStimulus = 0x10;

struct CommandFrame {
  Opcode opcode = Opcode::kNop;
  std::uint16_t payload = 0;
};

// Acknowledge protocol: a 2-word data frame [magic, detail]. ACK carries
// the acknowledged opcode, NACK the chip-side error code. The magic words
// are chosen away from plausible counter values, and the host only
// interprets them where a 2-word reply is not the expected data shape.
inline constexpr std::uint16_t kAckMagic = 0xA55A;
inline constexpr std::uint16_t kNackMagic = 0xE77E;

/// Typed error domain of the host/chip stack. Values below 0x10 are
/// chip-side command rejection reasons and travel in a NACK detail word;
/// values from 0x10 up are host-side transport/protocol failures the chip
/// never emits — they exist so `Result<T, ChipError>` can carry *why* a
/// transaction failed instead of collapsing every failure into
/// nullopt/false (the pre-Result mixed conventions).
enum class ChipError : std::uint16_t {
  kNone = 0,
  kBadSite = 1,     // kSelectSite row/col outside the array
  kBadGate = 2,     // gate-time code outside [0,15]
  kBadDacCode = 3,  // DAC code beyond the converter's resolution
  // --- host-side (never a NACK detail word) ------------------------------
  kCrcFailure = 0x10,        // reply rejected by CRC / framing
  kRetriesExhausted = 0x11,  // no valid reply within the retry budget
  kTimeout = 0x12,           // the transaction hung on the link
  kMalformed = 0x13,         // frame too short / wrong shape to decode
  kNotCalibrated = 0x14,     // operation requires a calibrated chip
  kBadArgument = 0x15,       // host-side argument validation failed
};

/// Stable diagnostic name for an error code (e.g. "bad_site").
const char* chip_error_name(ChipError err);

// CRC-8 (polynomial 0x07) lives in common/crc.hpp — shared verbatim with
// the fleet host-command protocol and the snapshot container. Re-exported
// here so existing `dnachip::crc8` call sites keep working.
using biosense::crc8;

/// Packed MSB-first bit stream: the one buffer type of the serial stack.
/// Bit i sits at bit (63 - i % 64) of word i / 64, so each 64-bit word
/// holds the next 64 bits in wire order. Bits past `size()` in the last
/// word are always zero, which keeps appends and equality plain word
/// operations. Clearing, resizing and copy-assigning reuse the word
/// buffer's capacity, so a reused stream stops allocating once it has
/// seen its largest frame.
class BitStream {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    words_.clear();
    size_ = 0;
  }
  void reserve(std::size_t bits) { words_.reserve((bits + 63) / 64); }

  /// Cuts the stream to its first `bits` bits, or grows it with zeros.
  void resize(std::size_t bits);

  /// Bit `i` (< size()).
  bool operator[](std::size_t i) const {
    return ((words_[i / 64] >> (63 - i % 64)) & 1u) != 0;
  }
  void flip(std::size_t i) {
    words_[i / 64] ^= std::uint64_t{1} << (63 - i % 64);
  }

  /// Appends the low `n` bits of `value` (1 <= n <= 64, higher bits of
  /// `value` zero), most significant first.
  void append(std::uint64_t value, unsigned n) {
    const unsigned used = static_cast<unsigned>(size_ % 64);
    size_ += n;
    if (used == 0) {
      words_.push_back(value << (64 - n));
    } else if (used + n <= 64) {
      words_.back() |= value << (64 - used - n);
    } else {
      const unsigned spill = used + n - 64;
      words_.back() |= value >> spill;
      words_.push_back(value << (64 - spill));
    }
  }

  /// The `n` bits (1 <= n <= 64) starting at bit `pos`, most significant
  /// first; requires pos + n <= size().
  std::uint64_t read(std::size_t pos, unsigned n) const {
    const std::size_t q = pos / 64;
    const unsigned r = static_cast<unsigned>(pos % 64);
    std::uint64_t v = words_[q] << r;
    if (r + n > 64) v |= words_[q + 1] >> (64 - r);
    return v >> (64 - n);
  }

  friend bool operator==(const BitStream&, const BitStream&) = default;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Encodes a command frame into its 32-bit wire representation
/// (opcode | payload | crc), MSB first.
BitStream encode_command(const CommandFrame& cmd);

/// Decodes a 32-bit command off the wire; kMalformed when the frame is not
/// 32 bits, kCrcFailure when the checksum rejects it.
Result<CommandFrame, ChipError> decode_command(const BitStream& bits);

/// Encodes a data word stream into CRC-protected data frames: each frame is
/// a 16-bit word + 8-bit CRC.
BitStream encode_data(const std::vector<std::uint16_t>& words);

/// In-place variant reusing the caller's stream (cleared, capacity
/// retained) — the streaming pipeline's zero-steady-state-allocation path.
void encode_data_into(const std::vector<std::uint16_t>& words,
                      BitStream& bits);

/// Decodes data frames; kMalformed on a ragged bit count, kCrcFailure when
/// any frame's checksum rejects it.
Result<std::vector<std::uint16_t>, ChipError> decode_data(
    const BitStream& bits);

/// Merges lenient decodes across retry attempts: each readback corrupts a
/// few different 24-bit frames, so the union of a few partially-corrupt
/// attempts completes a frame long before a fully clean pass shows up.
/// This is the host-side recovery core shared by every chip's readout path
/// (`HostInterface::query` for the DNA chip, `core::FrameWire` for the
/// neural chip). First valid value wins per word; merge order is the
/// attempt order, so recovery is deterministic. The merged frame is flat:
/// one 16-bit word per expected word plus one validity bit each.
class WordMerger {
 public:
  explicit WordMerger(std::size_t expected = 0) { reset(expected); }

  /// Clears state for a new transaction expecting `expected` words
  /// (capacity retained).
  void reset(std::size_t expected);

  /// Lenient decode of one attempt, fused with the merge: every complete
  /// 24-bit frame whose word is still missing is CRC-checked and, when it
  /// passes, taken. Trailing partial frames and frames beyond `expected`
  /// are ignored. Returns how many words this attempt newly recovered.
  std::size_t absorb(const BitStream& bits);

  bool complete() const { return filled_ == expected_; }
  std::size_t filled() const { return filled_; }
  std::size_t expected() const { return expected_; }
  /// Whether word `i` (< expected()) has arrived intact.
  bool valid(std::size_t i) const {
    return ((valid_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  /// One word per expected word; zero where `valid(i)` is false.
  const std::vector<std::uint16_t>& words() const { return words_; }

  /// Copies the merged words out (requires `complete()`); reuses `out`'s
  /// capacity.
  void extract(std::vector<std::uint16_t>& out) const;

 private:
  std::vector<std::uint16_t> words_;
  std::vector<std::uint64_t> valid_;
  std::size_t expected_ = 0;
  std::size_t filled_ = 0;
};

/// Host retry discipline: bounded attempts with exponential backoff.
/// Backoff is simulated (accumulated arithmetically, never slept) so runs
/// stay fast and deterministic. Transport-layer policy shared by both
/// chips' host runtimes.
struct RetryPolicy {
  int max_attempts = 8;
  double backoff_base_s = 100e-6;
  double backoff_multiplier = 2.0;
};

/// Simulated backoff charged after failed attempt number `attempt`
/// (1-based): base * multiplier^(attempt - 1).
double retry_backoff(const RetryPolicy& policy, int attempt);

/// The chip's positive acknowledge for `op`.
BitStream encode_ack(Opcode op);

/// The chip's rejection frame for an invalid payload.
BitStream encode_nack(ChipError err);

/// What happened to the last frame through the link.
enum class LinkEvent : std::uint8_t {
  kOk = 0,     // delivered (possibly with per-bit flips — CRC's job)
  kBurst,      // a contiguous run of bits was flipped
  kDropped,    // the frame vanished entirely
  kTruncated,  // the frame was cut short
  kTimeout,    // the transaction hung; the host observed a timeout
};

struct LinkStats {
  std::uint64_t frames = 0;
  std::uint64_t bursts = 0;
  std::uint64_t drops = 0;
  std::uint64_t truncations = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bit_flips = 0;
};

/// Bit transport with injectable faults: random bit flips plus the
/// frame-level fault model of a `FaultPlan`.
class SerialLink {
 public:
  SerialLink(double bit_error_rate, Rng rng);

  /// Installs a frame-level fault model. A non-zero model bit-error rate
  /// overrides the constructed one.
  void inject_faults(const faults::LinkFaultModel& model);

  /// Transfers `bits` across the link into `out` (capacity retained).
  /// Frame-level fates are drawn first, in a fixed order: timeout and drop
  /// leave `out` empty, truncation keeps uniform_int(1, n - 1) bits, and a
  /// burst flips bits [start, min(n, start + burst_length)). Then exactly
  /// one bernoulli(ber) draw is made per delivered bit, in bit order, and
  /// flips that bit on success. A clean link (BER 0, no fault model) is a
  /// plain word copy. `last_event()` reports what happened.
  void transfer(const BitStream& bits, BitStream& out);

  LinkEvent last_event() const { return last_event_; }
  const LinkStats& stats() const { return stats_; }

  /// Fault-draw stream + transfer accounting. The BER and fault model are
  /// injected configuration, reproduced by reconstruction.
  void save_state(snapshot::StateWriter& w) const {
    w.rng(rng_);
    w.u8(static_cast<std::uint8_t>(last_event_));
    w.u64(stats_.frames);
    w.u64(stats_.bursts);
    w.u64(stats_.drops);
    w.u64(stats_.truncations);
    w.u64(stats_.timeouts);
    w.u64(stats_.bit_flips);
    w.u64(bits_transferred_);
  }
  void load_state(snapshot::StateReader& r) {
    r.rng(rng_);
    const std::uint8_t event = r.u8();
    if (event > static_cast<std::uint8_t>(LinkEvent::kTimeout)) {
      r.fail();
      return;
    }
    last_event_ = static_cast<LinkEvent>(event);
    stats_.frames = r.u64();
    stats_.bursts = r.u64();
    stats_.drops = r.u64();
    stats_.truncations = r.u64();
    stats_.timeouts = r.u64();
    stats_.bit_flips = r.u64();
    bits_transferred_ = r.u64();
  }

  /// Bits transferred so far (both directions) — used by the timing budget
  /// bench to compute readout time at a given SCLK.
  std::uint64_t bits_transferred() const { return bits_transferred_; }

  double bit_error_rate() const { return ber_; }

 private:
  double ber_;  // analyze:transient - frozen config
  Rng rng_;
  // analyze:transient - injected fault config, re-applied by the fault plan
  faults::LinkFaultModel faults_{};
  bool has_frame_faults_ = false;  // analyze:transient - fault config, re-applied
  LinkEvent last_event_ = LinkEvent::kOk;
  LinkStats stats_{};
  std::uint64_t bits_transferred_ = 0;
};

}  // namespace biosense::dnachip
