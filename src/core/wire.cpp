#include "core/wire.hpp"

#include <cstring>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::core {

WireStats& WireStats::operator+=(const WireStats& o) {
  frames += o.frames;
  words += o.words;
  bits += o.bits;
  attempts += o.attempts;
  retries += o.retries;
  recovered_words += o.recovered_words;
  lost_words += o.lost_words;
  incomplete_frames += o.incomplete_frames;
  backoff_s += o.backoff_s;
  return *this;
}

void FrameCodec::encode(const neurochip::NeuroFrame& frame, std::uint16_t seq,
                        std::vector<std::uint16_t>& words) const {
  // Sized once and written by index: at a steady geometry the resize is a
  // no-op and the buffer never reallocates.
  const std::size_t n = frame.codes.size();
  words.resize(8 + 2 * n);
  words[0] = seq;
  words[1] = static_cast<std::uint16_t>(frame.rows);
  words[2] = static_cast<std::uint16_t>(frame.cols);
  words[3] = static_cast<std::uint16_t>(frame.masked);
  std::uint64_t t_bits = 0;
  std::memcpy(&t_bits, &frame.t, sizeof(t_bits));
  for (std::size_t k = 0; k < 4; ++k) {
    words[4 + k] = static_cast<std::uint16_t>(t_bits >> (16 * (3 - k)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::uint32_t>(frame.codes[i]);
    words[8 + 2 * i] = static_cast<std::uint16_t>(u >> 16);
    words[9 + 2 * i] = static_cast<std::uint16_t>(u);
  }
}

std::size_t FrameCodec::decode(const dnachip::WordMerger& words,
                               std::uint16_t seq,
                               neurochip::NeuroFrame& frame) const {
  const std::vector<std::uint16_t>& w = words.words();
  const std::size_t avail = words.expected();
  std::size_t lost = 0;
  const auto ok = [&words, avail](std::size_t i) {
    return i < avail && words.valid(i);
  };
  // Header. Geometry and the sequence tag are host-side knowledge (the
  // host configured the chip and chose the tag), so a missing or
  // mismatched word falls back to the expected value and is counted lost;
  // `masked` and the timestamp are chip-side facts taken from the wire
  // when they arrived intact.
  const std::uint16_t expected_header[3] = {
      seq, static_cast<std::uint16_t>(frame.rows),
      static_cast<std::uint16_t>(frame.cols)};
  for (std::size_t i = 0; i < 3; ++i) {
    if (!ok(i) || w[i] != expected_header[i]) ++lost;
  }
  if (ok(3)) {
    frame.masked = static_cast<int>(w[3]);
  } else {
    ++lost;
  }
  std::uint64_t t_bits = 0;
  bool t_complete = true;
  for (std::size_t k = 4; k < 8; ++k) {
    if (!ok(k)) {
      t_complete = false;
      ++lost;
      continue;
    }
    t_bits = (t_bits << 16) | w[k];
  }
  if (t_complete) std::memcpy(&frame.t, &t_bits, sizeof(frame.t));

  // Codes: two words per pixel; a pixel missing either half decodes to
  // zero (the host genuinely does not have that sample). The length check
  // is made once: pixels whose both halves lie within the merged words
  // index them directly, and only a short input's tail pays per-word
  // bounds checks.
  const std::size_t n = frame.codes.size();
  const std::size_t direct =
      avail >= 8 + 2 * n ? n : (avail > 8 ? (avail - 8) / 2 : 0);
  const auto decode_pixel = [&](std::size_t i, bool hi_ok, bool lo_ok) {
    std::int32_t code = 0;
    if (hi_ok && lo_ok) {
      code = static_cast<std::int32_t>(
          (static_cast<std::uint32_t>(w[8 + 2 * i]) << 16) | w[9 + 2 * i]);
    } else {
      lost += (hi_ok ? 0u : 1u) + (lo_ok ? 0u : 1u);
    }
    frame.codes[i] = code;
    frame.v_in[i] = static_cast<double>(code) * adc_lsb_ / conv_gain_;
  };
  for (std::size_t i = 0; i < direct; ++i) {
    decode_pixel(i, words.valid(8 + 2 * i), words.valid(9 + 2 * i));
  }
  for (std::size_t i = direct; i < n; ++i) {
    decode_pixel(i, ok(8 + 2 * i), ok(9 + 2 * i));
  }
  return lost;
}

WireStats FrameWire::process(neurochip::NeuroFrame& frame, std::uint16_t seq,
                             Rng rng) {
  BIOSENSE_SPAN("wire.frame");
  WireStats s;
  s.frames = 1;
  codec_.encode(frame, seq, words_);
  s.words = words_.size();
  dnachip::encode_data_into(words_, bits_);
  dnachip::SerialLink link(ber_, rng);
  if (link_faults_) link.inject_faults(*link_faults_);
  merger_.reset(words_.size());
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    ++s.attempts;
    link.transfer(bits_, rx_);
    const std::size_t fresh = merger_.absorb(rx_);
    if (attempt > 1) s.recovered_words += fresh;
    if (merger_.complete()) break;
    if (attempt < retry_.max_attempts) {
      ++s.retries;
      s.backoff_s += dnachip::retry_backoff(retry_, attempt);
      BIOSENSE_COUNT("wire.retries", 1);
    }
  }
  s.bits = link.bits_transferred();
  s.lost_words = codec_.decode(merger_, seq, frame);
  s.incomplete_frames = s.lost_words > 0 ? 1 : 0;
  BIOSENSE_COUNT("wire.frames", 1);
  // Flight events for the notable cases only — a retry storm (the link
  // burned every attempt) and genuine data loss. Healthy frames record
  // nothing, so the ring retains the interesting history.
  if (s.retries + 1 >= static_cast<std::uint64_t>(retry_.max_attempts) &&
      retry_.max_attempts > 1) {
    BIOSENSE_FLIGHT("wire.retry_storm", seq, s.retries);
  }
  if (s.lost_words > 0) {
    BIOSENSE_FLIGHT("wire.words_lost", seq, s.lost_words);
  }
  return s;
}

}  // namespace biosense::core
