#include "obs/wire.hpp"

#include <algorithm>
#include <string_view>

#include "common/crc.hpp"
#include "common/error.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::obs {

namespace {

constexpr std::size_t kMaxNameLen = 0xffff;
constexpr std::size_t kMaxEntries = 0xffff;
// Smallest encodings: a name entry with an empty suffix, a counter or
// gauge value, a histogram with no bounds (overflow count, total, sum).
constexpr std::size_t kMinNameBytes = 1 + 2;
constexpr std::size_t kMinValueBytes = 8;
constexpr std::size_t kMinHistogramBytes = 2 + 8 + 8 + 8;

std::size_t shared_prefix(std::string_view a, std::string_view b) {
  const std::size_t n = std::min({a.size(), b.size(), std::size_t{255}});
  std::size_t k = 0;
  while (k < n && a[k] == b[k]) ++k;
  return k;
}

}  // namespace

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kTruncated:
      return "truncated";
    case WireError::kBadMagic:
      return "bad_magic";
    case WireError::kBadVersion:
      return "bad_version";
    case WireError::kBadCrc:
      return "bad_crc";
    case WireError::kBadLayout:
      return "bad_layout";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_snapshot(const MetricsSnapshot& snap) {
  const std::size_t names = snap.counters.size() + snap.gauges.size() +
                            snap.histograms.size();
  require(names <= kMaxEntries,
          "encode_snapshot: too many instruments for the u16 counts");
  require(snap.counters.size() <= kMaxEntries &&
              snap.gauges.size() <= kMaxEntries &&
              snap.histograms.size() <= kMaxEntries,
          "encode_snapshot: section count overflows u16");

  std::vector<std::uint8_t> out;
  snapshot::StateWriter w(out);
  w.u16(kMetricsWireMagic);
  w.u8(kMetricsWireVersion);
  w.u8(0);  // CRC slot, patched below
  w.u16(static_cast<std::uint16_t>(names));
  w.u16(static_cast<std::uint16_t>(snap.counters.size()));
  w.u16(static_cast<std::uint16_t>(snap.gauges.size()));
  w.u16(static_cast<std::uint16_t>(snap.histograms.size()));
  w.u32(0);  // total length, patched below

  // Front-coded name table: counters, gauges, histograms, in order.
  std::string_view prev;
  const auto put_name = [&](const std::string& name) {
    require(name.size() <= kMaxNameLen, "encode_snapshot: name too long");
    const std::size_t shared = shared_prefix(prev, name);
    w.u8(static_cast<std::uint8_t>(shared));
    w.str(std::string_view(name).substr(shared));
    prev = name;
  };
  for (const auto& [name, value] : snap.counters) put_name(name);
  for (const auto& [name, value] : snap.gauges) put_name(name);
  for (const auto& [name, value] : snap.histograms) put_name(name);

  for (const auto& [name, value] : snap.counters) w.u64(value);
  for (const auto& [name, value] : snap.gauges) w.f64(value);
  for (const auto& [name, h] : snap.histograms) {
    require(h.bounds.size() <= kMaxEntries,
            "encode_snapshot: histogram bound count overflows u16");
    require(h.counts.size() == h.bounds.size() + 1,
            "encode_snapshot: histogram counts must be bounds + overflow");
    w.u16(static_cast<std::uint16_t>(h.bounds.size()));
    for (double b : h.bounds) w.f64(b);
    for (std::uint64_t c : h.counts) w.u64(c);
    w.u64(h.total);
    w.f64(h.sum);
  }

  const auto total = static_cast<std::uint32_t>(out.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out[12 + i] = static_cast<std::uint8_t>(total >> (8 * i));
  }
  out[3] = crc8(out);  // over the still-zero CRC slot
  return out;
}

Result<MetricsSnapshot, WireError> decode_snapshot(const std::uint8_t* bytes,
                                                   std::size_t n) {
  using R = Result<MetricsSnapshot, WireError>;
  if (n < kMetricsWireHeader) return R::err(WireError::kTruncated);

  snapshot::StateReader header(bytes, kMetricsWireHeader);
  const std::uint16_t magic = header.u16();
  const std::uint8_t version = header.u8();
  const std::uint8_t crc = header.u8();
  const std::uint16_t name_count = header.u16();
  const std::uint16_t counter_count = header.u16();
  const std::uint16_t gauge_count = header.u16();
  const std::uint16_t histogram_count = header.u16();
  const std::uint32_t total_len = header.u32();
  if (magic != kMetricsWireMagic) return R::err(WireError::kBadMagic);
  if (version != kMetricsWireVersion) return R::err(WireError::kBadVersion);
  if (total_len > n) return R::err(WireError::kTruncated);
  if (total_len < n || total_len < kMetricsWireHeader) {
    return R::err(WireError::kBadLayout);
  }

  if (crc8_zero_slot(bytes, n, 3) != crc) return R::err(WireError::kBadCrc);

  if (static_cast<std::size_t>(counter_count) + gauge_count +
          histogram_count != name_count) {
    return R::err(WireError::kBadLayout);
  }
  // Every entry has a minimum encoded size, so counts the body cannot back
  // are rejected before any container is sized from them.
  const std::size_t min_body =
      kMinNameBytes * name_count +
      kMinValueBytes * (std::size_t{counter_count} + gauge_count) +
      kMinHistogramBytes * histogram_count;
  if (min_body > n - kMetricsWireHeader) return R::err(WireError::kBadLayout);

  snapshot::StateReader r(bytes + kMetricsWireHeader,
                          n - kMetricsWireHeader);
  std::vector<std::string> names;
  names.reserve(name_count);
  std::string prev;
  std::string suffix;
  for (std::uint16_t i = 0; i < name_count; ++i) {
    const std::uint8_t shared = r.u8();
    // str() checks the suffix length against the remaining bytes before
    // the string grows.
    r.str(suffix, kMaxNameLen);
    if (!r.ok() || shared > prev.size()) return R::err(WireError::kBadLayout);
    prev.resize(shared);
    prev += suffix;
    names.push_back(prev);
  }

  MetricsSnapshot snap;
  snap.counters.reserve(counter_count);
  snap.gauges.reserve(gauge_count);
  snap.histograms.reserve(histogram_count);
  std::size_t next_name = 0;
  for (std::uint16_t i = 0; i < counter_count; ++i) {
    snap.counters.emplace_back(names[next_name++], r.u64());
  }
  for (std::uint16_t i = 0; i < gauge_count; ++i) {
    snap.gauges.emplace_back(names[next_name++], r.f64());
  }
  for (std::uint16_t i = 0; i < histogram_count; ++i) {
    HistogramValue h;
    const std::uint16_t bound_count = r.u16();
    if (!r.ok() ||
        static_cast<std::size_t>(bound_count) * 8 > r.remaining()) {
      return R::err(WireError::kBadLayout);
    }
    h.bounds.reserve(bound_count);
    for (std::uint16_t k = 0; k < bound_count; ++k) h.bounds.push_back(r.f64());
    if (static_cast<std::size_t>(bound_count + 1) * 8 > r.remaining()) {
      return R::err(WireError::kBadLayout);
    }
    h.counts.reserve(static_cast<std::size_t>(bound_count) + 1);
    for (std::uint16_t k = 0; k <= bound_count; ++k) h.counts.push_back(r.u64());
    h.total = r.u64();
    h.sum = r.f64();
    snap.histograms.emplace_back(names[next_name++], std::move(h));
  }
  if (!r.exhausted()) return R::err(WireError::kBadLayout);
  return R::ok(std::move(snap));
}

}  // namespace biosense::obs
