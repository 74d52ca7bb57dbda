// Pinned transport digests: FNV-1a over everything the 6-pin serial stack
// delivers, for the two host runtimes that ride it.
//
//   - core::FrameWire: 64 frames of a 32x32 neural chip, decoded in place,
//     plus every WireStats field, at BER 0, 1e-4 and 1e-3 and under one
//     LinkFaultModel that truncates, bursts, drops and times out.
//   - dnachip::HostInterface: three autorange readouts' raw counts plus
//     the host's ProtocolStats and the link's LinkStats at BER 1e-3 with
//     every frame-level fault kind.
//
// The constants pin the link's fault semantics, its RNG draw order and its
// counters: a transport rewrite that keeps every output bit-identical
// leaves them alone, and any change to what the link delivers moves them.
// Only public, long-standing entry points are used, so the digests can be
// checked against older revisions of the transport too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/wire.hpp"
#include "dnachip/chip.hpp"
#include "dnachip/serial.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"

namespace biosense {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) { h_ = fnv1a(h_, data, n); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

constexpr int kRows = 32;
constexpr int kCols = 32;
constexpr int kFrames = 64;

faults::LinkFaultModel every_fault() {
  faults::LinkFaultModel m;
  m.truncate_prob = 0.2;
  m.burst_prob = 0.3;
  m.burst_length = 11;
  m.drop_prob = 0.1;
  m.timeout_prob = 0.05;
  return m;
}

/// Deterministic 32x32 frames: mostly in-range 10-bit ADC codes, with a
/// sprinkling of arbitrary 32-bit values so both code halves carry data.
std::vector<neurochip::NeuroFrame> make_frames() {
  Rng rng(0x5eed);
  std::vector<neurochip::NeuroFrame> frames(kFrames);
  for (int k = 0; k < kFrames; ++k) {
    neurochip::NeuroFrame& f = frames[static_cast<std::size_t>(k)];
    f.rows = kRows;
    f.cols = kCols;
    f.t = static_cast<double>(k) / 2048.0;
    f.masked = k % 7;
    f.codes.resize(static_cast<std::size_t>(kRows * kCols));
    f.v_in.assign(f.codes.size(), 0.0);
    for (auto& code : f.codes) {
      code = rng.bernoulli(0.05)
                 ? static_cast<std::int32_t>(
                       static_cast<std::uint32_t>(rng.next_u64()))
                 : static_cast<std::int32_t>(rng.uniform_int(-512, 511));
    }
  }
  return frames;
}

std::uint64_t wire_digest(double ber,
                          std::optional<faults::LinkFaultModel> link_faults,
                          int max_attempts = 8) {
  const core::FrameCodec codec(2.0 * 2e-3 / 1024.0, 37.5);
  dnachip::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  core::FrameWire wire(codec, ber, link_faults, retry);
  Rng master(0xfeed);
  Fnv h;
  for (neurochip::NeuroFrame frame : make_frames()) {
    const auto seq = static_cast<std::uint16_t>(frame.masked * 1000 + 3);
    const core::WireStats s = wire.process(frame, seq, master.fork());
    h.f64(frame.t);
    h.u64(static_cast<std::uint64_t>(frame.masked));
    h.bytes(frame.codes.data(), frame.codes.size() * sizeof(std::int32_t));
    h.bytes(frame.v_in.data(), frame.v_in.size() * sizeof(double));
    h.u64(s.frames);
    h.u64(s.words);
    h.u64(s.bits);
    h.u64(s.attempts);
    h.u64(s.retries);
    h.u64(s.recovered_words);
    h.u64(s.lost_words);
    h.u64(s.incomplete_frames);
    h.f64(s.backoff_s);
  }
  return h.value();
}

TEST(TransportPinned, FrameWireCleanLink) {
  EXPECT_EQ(wire_digest(0.0, std::nullopt), 0x19f86b7113c814b2ULL);
}

TEST(TransportPinned, FrameWireBer1e4) {
  EXPECT_EQ(wire_digest(1e-4, std::nullopt), 0x69abcceee3625c7aULL);
}

TEST(TransportPinned, FrameWireBer1e3) {
  EXPECT_EQ(wire_digest(1e-3, std::nullopt), 0x797cde80d1df4927ULL);
}

TEST(TransportPinned, FrameWireEveryFrameFault) {
  // Two attempts per frame, so some words stay lost and decode as gaps.
  EXPECT_EQ(wire_digest(0.0, every_fault(), 2), 0x5c827f146a46ed60ULL);
}

TEST(TransportPinned, DnaAutorangeBer1e3WithFaults) {
  dnachip::DnaChipConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  dnachip::DnaChip chip(cfg, Rng(91));
  dnachip::HostInterface host(chip, dnachip::SerialLink(1e-3, Rng(92)),
                              cfg.site);
  // Milder fates than the neural leg: a DNA transaction crosses the link
  // twice per attempt and should mostly complete within its budget.
  faults::LinkFaultModel model;
  model.bit_error_rate = 1e-3;
  model.truncate_prob = 0.1;
  model.burst_prob = 0.15;
  model.drop_prob = 0.05;
  model.timeout_prob = 0.03;
  host.link().inject_faults(model);
  ASSERT_TRUE(host.auto_calibrate(3));
  std::vector<double> currents(static_cast<std::size_t>(chip.sites()));
  for (std::size_t i = 0; i < currents.size(); ++i) {
    currents[i] = 1e-12 * static_cast<double>(1 + 7 * i);
  }
  chip.apply_sensor_currents(currents);

  Fnv h;
  for (int readout = 0; readout < 3; ++readout) {
    const auto frame = host.acquire_autorange();
    h.u64(static_cast<std::uint64_t>(frame.status));
    for (const std::uint64_t c : frame.raw_counts) h.u64(c);
    h.u64(frame.serial_bits);
    h.u64(frame.retries);
  }
  const dnachip::ProtocolStats& p = host.stats();
  h.u64(p.transactions);
  h.u64(p.attempts);
  h.u64(p.retries);
  h.u64(p.crc_failures);
  h.u64(p.timeouts);
  h.u64(p.short_replies);
  h.u64(p.nacks);
  h.f64(p.backoff_s);
  const dnachip::LinkStats& l = host.link().stats();
  h.u64(l.frames);
  h.u64(l.bursts);
  h.u64(l.drops);
  h.u64(l.truncations);
  h.u64(l.timeouts);
  h.u64(l.bit_flips);
  h.u64(host.total_bits_transferred());
  EXPECT_GT(p.retries, 0u);
  EXPECT_GT(l.bursts, 0u);
  EXPECT_GT(l.drops, 0u);
  EXPECT_GT(l.truncations, 0u);
  EXPECT_GT(l.timeouts, 0u);
  EXPECT_EQ(h.value(), 0x79e87c1edb2505aeULL);
}

}  // namespace
}  // namespace biosense
