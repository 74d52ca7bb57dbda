// CRC-8 (polynomial 0x07, init 0x00) — the one checksum of the codebase.
//
// Introduced for the DNA chip's 6-pin serial frames, later reused by the
// fleet host-command protocol, the snapshot container and the obs metrics
// wire. All four formats deliberately share this polynomial so a single
// implementation is the only code that ever touches a checksum;
// `dnachip::crc8` is an alias of these functions. The three byte formats
// that store their CRC inside the range it covers (host frames, snapshot
// section headers, the metrics wire) all checksum that range with the CRC
// byte read as zero: `crc8_zero_slot`.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace biosense {

inline constexpr std::uint8_t kCrc8Poly = 0x07;

namespace detail {

/// Entry b is the CRC register after shifting byte b through all eight
/// polynomial steps, so one lookup folds a whole byte.
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    auto crc = static_cast<std::uint8_t>(b);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ kCrc8Poly)
                         : static_cast<std::uint8_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint8_t, 256> kCrc8Table = make_crc8_table();

}  // namespace detail

/// Streaming form: folds `n` more bytes into a running CRC, so callers can
/// checksum non-contiguous ranges (e.g. a section header with its CRC byte
/// zeroed, followed by the payload) without concatenating them.
/// Table-driven: one lookup per byte.
constexpr std::uint8_t crc8_update(std::uint8_t crc, const std::uint8_t* bytes,
                                   std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    crc = detail::kCrc8Table[static_cast<std::uint8_t>(crc ^ bytes[j])];
  }
  return crc;
}

/// Allocation-free CRC-8 over a raw byte range (the hot-path variant).
constexpr std::uint8_t crc8(const std::uint8_t* bytes, std::size_t n) {
  return crc8_update(0x00, bytes, n);
}

/// Convenience overload for buffered callers.
inline std::uint8_t crc8(const std::vector<std::uint8_t>& bytes) {
  return crc8(bytes.data(), bytes.size());
}

/// CRC-8 over `n` bytes with the byte at `slot` (< n) read as zero, so a
/// decoder checks a buffer that carries its own CRC without copying it:
/// the buffer is intact when the result equals `bytes[slot]`.
constexpr std::uint8_t crc8_zero_slot(const std::uint8_t* bytes,
                                      std::size_t n, std::size_t slot) {
  const std::uint8_t zero = 0;
  std::uint8_t crc = crc8_update(0x00, bytes, slot);
  crc = crc8_update(crc, &zero, 1);
  return crc8_update(crc, bytes + slot + 1, n - slot - 1);
}

}  // namespace biosense
