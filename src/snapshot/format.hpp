// Versioned, CRC-guarded snapshot container (DESIGN.md §13).
//
// A snapshot is a flat sequence of length-prefixed sections behind a fixed
// header, every byte covered by a CRC-8 (the same 0x07 polynomial as the
// dnachip serial frames and the fleet host protocol):
//
//   offset  size  field                 file header (13 bytes)
//        0     4  magic        "BSNP" (0x42 0x53 0x4E 0x50 on disk)
//        4     2  version      container version (kSnapshotVersion)
//        6     2  section_count
//        8     4  total_len    whole file, header included
//       12     1  crc          CRC-8 over bytes [0, 12)
//
//   per section (9-byte header + payload):
//        0     2  id           section id (registry: snapshot/sections.hpp)
//        2     2  version      section schema version
//        4     4  payload_len
//        8     1  crc          CRC-8 over this header (crc byte zeroed)
//                              followed by the payload bytes
//
// Corruption contract: any single-bit flip anywhere in the file is caught
// by a CRC (header flips by the header CRC — including the CRC byte
// itself — section flips by that section's CRC, which covers the section
// header so a flipped id/length cannot redirect a valid payload);
// truncation at any byte is caught by total_len / section length
// accounting. Multi-bit collisions that defeat an 8-bit CRC still land in
// bounds-checked StateReader parsing, so the worst outcome is a typed
// error, never UB — test_snapshot flips every bit and truncates at every
// length to hold this line.
//
// Forward compatibility: readers iterate the section table and skip ids
// they do not recognize, so a newer writer can append sections without
// breaking older readers; bumping kSnapshotVersion is reserved for layout
// changes an old reader would misparse. A section whose payload layout
// changes gets a new section version instead, and readers refuse any
// version they do not know (`load_section`, snapshot/sections.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.hpp"

namespace biosense::snapshot {

inline constexpr std::uint8_t kSnapshotMagic[4] = {0x42, 0x53, 0x4E, 0x50};
inline constexpr std::uint16_t kSnapshotVersion = 1;
inline constexpr std::size_t kHeaderSize = 13;
inline constexpr std::size_t kSectionHeaderSize = 9;
/// Sanity caps: a snapshot that claims more is rejected as corrupt before
/// any allocation is sized from untrusted bytes.
inline constexpr std::size_t kMaxSections = 4096;
inline constexpr std::size_t kMaxSectionPayload = std::size_t{1} << 28;

/// Typed rejection reasons for snapshot parsing and checkpoint I/O.
enum class SnapshotError : std::uint8_t {
  kTruncated = 0,       // fewer bytes than a length field promises
  kBadMagic,            // not a snapshot at all
  kBadVersion,          // container newer than this reader
  kBadHeaderCrc,        // header checksum rejected the file
  kBadSectionHeader,    // section table violates the sanity caps
  kBadSectionCrc,       // a section checksum rejected its bytes
  kDuplicateSection,    // the same section id appears twice
  kMissingSection,      // a section the consumer requires is absent
  kBadPayload,          // a section payload failed schema validation
  kStateMismatch,       // snapshot disagrees with the restore target
  kIoError,             // filesystem failure (open/write/rename)
  kBadSectionVersion,   // a section's schema version is unknown to its reader
};

/// Stable diagnostic name ("truncated", "bad_section_crc", ...).
const char* snapshot_error_name(SnapshotError err);

/// One parsed section: a view into the snapshot buffer handed to
/// `SnapshotView::parse` (valid only while that buffer lives).
struct SectionView {
  std::uint16_t id = 0;
  std::uint16_t version = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

/// Assembles a snapshot file: add sections, then `finish()`.
class SnapshotBuilder {
 public:
  /// Appends one section. Payload bytes are copied; duplicate ids and
  /// oversized payloads throw ConfigError — producing an unloadable
  /// snapshot is a bug, not a runtime condition.
  void add_section(std::uint16_t id, std::uint16_t version,
                   const std::vector<std::uint8_t>& payload);

  /// Serializes header + section table into one contiguous buffer.
  std::vector<std::uint8_t> finish() const;

 private:
  struct Section {
    std::uint16_t id;
    std::uint16_t version;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

/// Validated parse of a snapshot buffer. Every CRC and length is checked
/// up front; consumers then read their sections with `load_section`
/// (snapshot/sections.hpp).
class SnapshotView {
 public:
  static Result<SnapshotView, SnapshotError> parse(const std::uint8_t* bytes,
                                                   std::size_t n);
  static Result<SnapshotView, SnapshotError> parse(
      const std::vector<std::uint8_t>& bytes) {
    return parse(bytes.data(), bytes.size());
  }

  /// The section with this id, or nullptr when absent (unknown ids are
  /// simply never asked for — that is the forward-compatible skip).
  const SectionView* find(std::uint16_t id) const;

  const std::vector<SectionView>& sections() const { return sections_; }

 private:
  std::vector<SectionView> sections_;
};

}  // namespace biosense::snapshot
