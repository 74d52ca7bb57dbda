// Host wire runtime for the neural chip: frames serialized over the same
// CRC-protected 24-bit data framing (and the same fault-injectable
// `SerialLink` transport) the DNA chip's 6-pin interface uses, decoded on
// the host from the union of retry attempts (`WordMerger`). One host
// runtime for both chips — the DNA chip drives it through
// `dnachip::HostInterface`, the neural chip through the streaming
// pipeline's wire stage (`core::ChipSession`).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dnachip/serial.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"

namespace biosense::core {

/// Per-frame (and, summed at the sink, per-run) wire accounting.
struct WireStats {
  std::uint64_t frames = 0;            // frames pushed through the wire
  std::uint64_t words = 0;             // 16-bit payload words serialized
  std::uint64_t bits = 0;              // bits that crossed the link
  std::uint64_t attempts = 0;          // transfer attempts incl. first tries
  std::uint64_t retries = 0;           // attempts beyond the first
  std::uint64_t recovered_words = 0;   // words recovered on attempts > 1
  std::uint64_t lost_words = 0;        // words still missing after retries
  std::uint64_t incomplete_frames = 0; // frames with any lost word
  double backoff_s = 0.0;              // cumulative simulated backoff

  WireStats& operator+=(const WireStats& o);
};

/// Serializes a `NeuroFrame` to 16-bit words and back. The host transmits
/// only raw ADC codes plus a small header; `v_in` is recomputed on decode
/// from the same `code * adc_lsb / conv_gain` expression the chip-side
/// capture uses, so a lossless roundtrip is bitwise identical.
class FrameCodec {
 public:
  /// `adc_lsb` and `conv_gain` must match the capturing chip's values
  /// (derived from its config) — the host's datasheet knowledge.
  FrameCodec(double adc_lsb, double conv_gain)
      : adc_lsb_(adc_lsb), conv_gain_(conv_gain) {}

  /// Words per frame for the given geometry: 8 header words (seq, rows,
  /// cols, masked, 4x time) + 2 words per pixel code.
  static std::size_t words_for(int rows, int cols) {
    return 8 + 2 * static_cast<std::size_t>(rows) *
                   static_cast<std::size_t>(cols);
  }

  /// Encodes `frame` into `words` (overwritten, capacity retained). `seq`
  /// is a 16-bit frame tag checked on decode.
  void encode(const neurochip::NeuroFrame& frame, std::uint16_t seq,
              std::vector<std::uint16_t>& words) const;

  /// Decodes the merged words into `frame`, recomputing `v_in`; returns
  /// the number of lost words. A word is lost when it is invalid (missing
  /// on the wire even after retry merging) or beyond `words.expected()`.
  /// A pixel missing either half decodes to code 0. A missing or
  /// mismatched seq/rows/cols header word falls back to the expected
  /// value and counts as lost; it never throws.
  std::size_t decode(const dnachip::WordMerger& words, std::uint16_t seq,
                     neurochip::NeuroFrame& frame) const;

 private:
  double adc_lsb_;
  double conv_gain_;
};

/// One worker's wire lane: owns every scratch buffer of the
/// encode -> transfer -> merge (fused lenient decode) -> decode path, so
/// the steady state allocates nothing. Each frame rides its own forked RNG
/// (capture order), making results independent of which worker runs it.
class FrameWire {
 public:
  FrameWire(FrameCodec codec, double bit_error_rate,
            std::optional<faults::LinkFaultModel> link_faults,
            dnachip::RetryPolicy retry)
      : codec_(codec),
        ber_(bit_error_rate),
        link_faults_(std::move(link_faults)),
        retry_(retry) {}

  /// Serializes `frame`, moves it across a fresh `SerialLink` seeded with
  /// `rng`, and decodes the received words back into `frame` in place.
  /// Lossy attempts are retried and merged word-wise (`WordMerger`);
  /// words still missing after the retry budget decode as zero codes.
  WireStats process(neurochip::NeuroFrame& frame, std::uint16_t seq, Rng rng);

 private:
  FrameCodec codec_;
  double ber_;
  std::optional<faults::LinkFaultModel> link_faults_;
  dnachip::RetryPolicy retry_;
  // Scratch reused across frames (per worker, never shared).
  std::vector<std::uint16_t> words_;
  dnachip::BitStream bits_;
  dnachip::BitStream rx_;
  dnachip::WordMerger merger_;
};

}  // namespace biosense::core
