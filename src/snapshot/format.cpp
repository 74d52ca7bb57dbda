#include "snapshot/format.hpp"

#include <cstring>

#include "common/crc.hpp"
#include "common/error.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::snapshot {

const char* snapshot_error_name(SnapshotError err) {
  switch (err) {
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kBadMagic: return "bad_magic";
    case SnapshotError::kBadVersion: return "bad_version";
    case SnapshotError::kBadHeaderCrc: return "bad_header_crc";
    case SnapshotError::kBadSectionHeader: return "bad_section_header";
    case SnapshotError::kBadSectionCrc: return "bad_section_crc";
    case SnapshotError::kDuplicateSection: return "duplicate_section";
    case SnapshotError::kMissingSection: return "missing_section";
    case SnapshotError::kBadPayload: return "bad_payload";
    case SnapshotError::kStateMismatch: return "state_mismatch";
    case SnapshotError::kIoError: return "io_error";
    case SnapshotError::kBadSectionVersion: return "bad_section_version";
  }
  return "unknown";
}

void SnapshotBuilder::add_section(std::uint16_t id, std::uint16_t version,
                                  const std::vector<std::uint8_t>& payload) {
  require(payload.size() <= kMaxSectionPayload,
          "SnapshotBuilder: section payload exceeds kMaxSectionPayload");
  require(sections_.size() < kMaxSections,
          "SnapshotBuilder: too many sections");
  for (const Section& s : sections_) {
    require(s.id != id, "SnapshotBuilder: duplicate section id");
  }
  sections_.push_back(Section{id, version, payload});
}

std::vector<std::uint8_t> SnapshotBuilder::finish() const {
  std::size_t total = kHeaderSize;
  for (const Section& s : sections_) total += kSectionHeaderSize + s.payload.size();
  require(total <= 0xFFFFFFFFull, "SnapshotBuilder: snapshot exceeds 4 GiB");

  std::vector<std::uint8_t> out;
  out.reserve(total);
  StateWriter w(out);
  w.raw(kSnapshotMagic, 4);
  w.u16(kSnapshotVersion);
  w.u16(static_cast<std::uint16_t>(sections_.size()));
  w.u32(static_cast<std::uint32_t>(total));
  w.u8(crc8(out.data(), kHeaderSize - 1));

  for (const Section& s : sections_) {
    const std::size_t header_at = out.size();
    w.u16(s.id);
    w.u16(s.version);
    w.u32(static_cast<std::uint32_t>(s.payload.size()));
    w.u8(0);  // crc placeholder, zeroed while the CRC is computed
    w.raw(s.payload.data(), s.payload.size());
    out[header_at + kSectionHeaderSize - 1] =
        crc8(out.data() + header_at, kSectionHeaderSize + s.payload.size());
  }
  return out;
}

Result<SnapshotView, SnapshotError> SnapshotView::parse(
    const std::uint8_t* bytes, std::size_t n) {
  using R = Result<SnapshotView, SnapshotError>;
  if (n < kHeaderSize) return R::err(SnapshotError::kTruncated);
  if (std::memcmp(bytes, kSnapshotMagic, 4) != 0) {
    return R::err(SnapshotError::kBadMagic);
  }
  if (crc8(bytes, kHeaderSize - 1) != bytes[kHeaderSize - 1]) {
    return R::err(SnapshotError::kBadHeaderCrc);
  }
  StateReader head(bytes + 4, kHeaderSize - 5);  // past magic, before crc
  const std::uint16_t version = head.u16();
  const std::uint16_t section_count = head.u16();
  const std::uint32_t total_len = head.u32();
  if (version == 0 || version > kSnapshotVersion) {
    return R::err(SnapshotError::kBadVersion);
  }
  if (total_len != n) return R::err(SnapshotError::kTruncated);
  if (section_count > kMaxSections) {
    return R::err(SnapshotError::kBadSectionHeader);
  }

  SnapshotView view;
  view.sections_.reserve(section_count);
  std::size_t pos = kHeaderSize;
  for (std::uint16_t i = 0; i < section_count; ++i) {
    if (n - pos < kSectionHeaderSize) return R::err(SnapshotError::kTruncated);
    const std::uint8_t* at = bytes + pos;
    StateReader fields(at, kSectionHeaderSize);
    SectionView section;
    section.id = fields.u16();
    section.version = fields.u16();
    const std::uint32_t payload_len = fields.u32();
    if (payload_len > kMaxSectionPayload) {
      return R::err(SnapshotError::kBadSectionHeader);
    }
    if (n - pos - kSectionHeaderSize < payload_len) {
      return R::err(SnapshotError::kTruncated);
    }
    // The section CRC covers its header (crc byte zeroed) plus payload, so
    // a flipped id or length cannot smuggle a valid payload elsewhere.
    const std::size_t crc_slot = kSectionHeaderSize - 1;
    if (crc8_zero_slot(at, kSectionHeaderSize + payload_len, crc_slot) !=
        at[crc_slot]) {
      return R::err(SnapshotError::kBadSectionCrc);
    }
    section.payload = at + kSectionHeaderSize;
    section.size = payload_len;
    for (const SectionView& seen : view.sections_) {
      if (seen.id == section.id) {
        return R::err(SnapshotError::kDuplicateSection);
      }
    }
    view.sections_.push_back(section);
    pos += kSectionHeaderSize + payload_len;
  }
  if (pos != n) return R::err(SnapshotError::kTruncated);
  return R::ok(std::move(view));
}

const SectionView* SnapshotView::find(std::uint16_t id) const {
  for (const SectionView& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

}  // namespace biosense::snapshot
