// Compact wire encoding of a metrics-registry snapshot (DESIGN.md §15).
//
// `encode_snapshot` serializes an obs::MetricsSnapshot into a
// little-endian byte buffer small enough to stream over the host
// protocol's 1 KiB payload frames; `decode_snapshot` parses it back with
// the same hostility the snapshot container applies to checkpoint bytes:
// the whole buffer is CRC-8 guarded (every single-bit flip is rejected
// with a typed error), every length is validated against the remaining
// bytes before any container grows, and trailing garbage is corruption.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   0       2     magic 0x4D4F ("OM")
//   2       1     encoding version (kMetricsWireVersion)
//   3       1     CRC-8 over the whole buffer with this byte zeroed
//   4       2     name-table entry count
//   6       2     counter count
//   8       2     gauge count
//   10      2     histogram count
//   12      4     total buffer length
//   16      ...   name table, then counter / gauge / histogram sections
//
// The name table holds every instrument name — counters first, then
// gauges, then histograms, each kind in its registry (sorted) order — as
// front-coded entries `[shared u8][len u16][suffix bytes]`: `shared` is
// the byte count shared with the previous entry, so the long dotted
// prefixes instrument families share ("fleet.bench.w1.", ...) are stored
// once. Value sections then carry values only, matched to names by
// position. Counters and gauges are 8 bytes each (gauges as IEEE-754
// bit patterns, so a decode is bitwise-faithful); histograms carry
// `[bound_count u16][bounds f64...][counts u64 x bound_count+1]
// [total u64][sum f64]`.
//
// obs sits at the bottom of the library stack, so this header depends
// only on header-only cursors (snapshot/state_io.hpp) and common/crc.hpp
// — it does not link the snapshot container library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/metrics.hpp"

namespace biosense::obs {

inline constexpr std::uint16_t kMetricsWireMagic = 0x4D4F;  // "OM"
inline constexpr std::uint8_t kMetricsWireVersion = 1;
inline constexpr std::size_t kMetricsWireHeader = 16;

/// Typed decode failures, mirror of snapshot::SnapshotError: corruption
/// collapses to a reason, never UB or an unbounded allocation.
enum class WireError : std::uint8_t {
  kTruncated,   // buffer shorter than the header or its declared length
  kBadMagic,    // first bytes are not a metrics snapshot
  kBadVersion,  // encoding version this decoder does not speak
  kBadCrc,      // checksum mismatch (any single-bit flip lands here)
  kBadLayout,   // CRC-valid but structurally inconsistent (or trailing bytes)
};

const char* wire_error_name(WireError e);

/// Serializes a snapshot. Counts and name lengths are bounded by the u16
/// fields; a registry large enough to overflow them is a configuration
/// error and throws (control plane — never called on a hot path).
std::vector<std::uint8_t> encode_snapshot(const MetricsSnapshot& snap);

/// Parses an encoded snapshot. The buffer must be exactly one encoding:
/// shorter is kTruncated, longer is kBadLayout.
Result<MetricsSnapshot, WireError> decode_snapshot(const std::uint8_t* bytes,
                                                   std::size_t n);

}  // namespace biosense::obs
