// Metrics-snapshot wire format (DESIGN.md §15): round-trip fidelity on a
// populated registry, plus the hostile-input contract the snapshot
// container set the standard for — EVERY single-bit flip and EVERY
// truncation length must be rejected with a typed error.
#include "obs/wire.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/crc.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

// Counting allocator: while armed, every operator-new adds its request to
// g_requested, so a test can bound what a decode asks the heap for.
namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_requested{0};

void* counted_alloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_requested.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace biosense::obs {
namespace {

/// A snapshot exercising every encoder feature: all three instrument
/// kinds, shared dotted prefixes (front-coding), negative and non-finite
/// bit patterns, an empty-bounds histogram and a multi-bucket one.
MetricsSnapshot sample_snapshot() {
  // The registry is process-global (its constructor is private); resetting
  // zeroes values without invalidating earlier registrations, so repeated
  // calls rebuild the identical snapshot.
  Registry& reg = Registry::global();
  reg.reset();
  reg.counter("fleet.bench.w1.commands").add(123456789);
  reg.counter("fleet.bench.w1.errors").add(0);
  reg.counter("fleet.bench.w2.commands").add(42);
  reg.gauge("fleet.live_sessions").set(-3.25);
  reg.gauge("fleet.tax").set(0.0375);
  auto& h = reg.histogram("fleet.poll.latency", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(12.0);
  h.observe(5000.0);
  reg.histogram("fleet.quiet", {});
  return reg.snapshot();
}

TEST(MetricsWire, RoundTripIsLossless) {
  const MetricsSnapshot snap = sample_snapshot();
  const auto bytes = encode_snapshot(snap);
  ASSERT_GE(bytes.size(), kMetricsWireHeader);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, snap);
}

TEST(MetricsWire, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  const auto bytes = encode_snapshot(empty);
  EXPECT_EQ(bytes.size(), kMetricsWireHeader);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, empty);
}

TEST(MetricsWire, FrontCodingSharesDottedPrefixes) {
  // Three 24-char names sharing a 15-char prefix must encode smaller
  // than the naive concatenation — the point of the name table.
  MetricsSnapshot snap;
  snap.counters.emplace_back("fleet.bench.w1.commands", 1);
  snap.counters.emplace_back("fleet.bench.w1.errors", 2);
  snap.counters.emplace_back("fleet.bench.w1.retries", 3);
  const auto bytes = encode_snapshot(snap);
  std::size_t naive = 0;
  for (const auto& [name, value] : snap.counters) naive += name.size();
  const std::size_t table = bytes.size() - kMetricsWireHeader -
                            snap.counters.size() * (8 + 3);
  EXPECT_LT(table, naive);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, snap);
}

TEST(MetricsWire, GaugeBitsAreFaithful) {
  // IEEE bit patterns survive exactly — including negative zero.
  MetricsSnapshot snap;
  snap.gauges.emplace_back("a.neg_zero", -0.0);
  snap.gauges.emplace_back("a.tiny", 5e-324);
  const auto bytes = encode_snapshot(snap);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(std::signbit(decoded->gauges[0].second));
  EXPECT_EQ(decoded->gauges[1].second, 5e-324);
}

TEST(MetricsWire, EverySingleBitFlipIsRejectedTyped) {
  const auto good = encode_snapshot(sample_snapshot());
  ASSERT_TRUE(decode_snapshot(good.data(), good.size()));
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = good;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = decode_snapshot(corrupt.data(), corrupt.size());
      ASSERT_FALSE(decoded) << "flip survived at byte " << byte << " bit "
                            << bit;
      EXPECT_STRNE(wire_error_name(decoded.error()), "unknown");
    }
  }
}

TEST(MetricsWire, EveryTruncationLengthIsRejectedTyped) {
  const auto good = encode_snapshot(sample_snapshot());
  for (std::size_t n = 0; n < good.size(); ++n) {
    const auto decoded = decode_snapshot(good.data(), n);
    ASSERT_FALSE(decoded) << "truncation to " << n << " bytes survived";
    EXPECT_EQ(decoded.error(), WireError::kTruncated);
  }
  // Trailing garbage is corruption too, not slack.
  auto extended = good;
  extended.push_back(0x00);
  const auto decoded = decode_snapshot(extended.data(), extended.size());
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.error(), WireError::kBadLayout);
}

TEST(MetricsWire, WrongMagicAndVersionAreTyped) {
  auto bytes = encode_snapshot(sample_snapshot());
  auto wrong_magic = bytes;
  wrong_magic[0] = 0x00;
  auto r1 = decode_snapshot(wrong_magic.data(), wrong_magic.size());
  ASSERT_FALSE(r1);
  EXPECT_EQ(r1.error(), WireError::kBadMagic);

  auto wrong_version = bytes;
  wrong_version[2] = kMetricsWireVersion + 1;
  auto r2 = decode_snapshot(wrong_version.data(), wrong_version.size());
  ASSERT_FALSE(r2);
  EXPECT_EQ(r2.error(), WireError::kBadVersion);
}

TEST(MetricsWire, CountsTheBodyCannotBackAllocateNothing) {
  // A CRC-valid header may claim up to 65535 entries per section; the
  // decoder must reject counts the bytes cannot back before sizing any
  // container from them.
  const auto hostile = [](std::uint16_t names, std::uint16_t counters,
                          std::uint16_t histograms, std::size_t empty_names) {
    std::vector<std::uint8_t> out;
    snapshot::StateWriter w(out);
    w.u16(kMetricsWireMagic);
    w.u8(kMetricsWireVersion);
    w.u8(0);  // CRC slot
    w.u16(names);
    w.u16(counters);
    w.u16(0);  // gauges
    w.u16(histograms);
    w.u32(static_cast<std::uint32_t>(kMetricsWireHeader + 3 * empty_names));
    for (std::size_t i = 0; i < empty_names; ++i) {
      w.u8(0);
      w.str("");
    }
    out[3] = crc8_zero_slot(out.data(), out.size(), 3);
    return out;
  };
  // Bare header claiming 65535 counters; 65535 empty names claiming
  // 65535 histograms.
  for (const auto& bytes :
       {hostile(0xffff, 0xffff, 0, 0), hostile(0xffff, 0, 0xffff, 0xffff)}) {
    g_requested = 0;
    g_armed = true;
    const auto decoded = decode_snapshot(bytes.data(), bytes.size());
    g_armed = false;
    ASSERT_FALSE(decoded);
    EXPECT_EQ(decoded.error(), WireError::kBadLayout);
    EXPECT_LE(g_requested.load(), 4 * bytes.size());
  }
}

TEST(MetricsWire, JsonMirrorsRegistryShape) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string json = snapshot_to_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet.bench.w1.commands\": 123456789"),
            std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet.poll.latency\""), std::string::npos);
  // Decoding an encoding and rendering it must be byte-identical to
  // rendering the original snapshot — the remote/local report paths agree.
  const auto bytes = encode_snapshot(snap);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(snapshot_to_json(*decoded), json);
}

}  // namespace
}  // namespace biosense::obs
