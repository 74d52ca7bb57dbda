// The section registry of every checkpoint (DESIGN.md §13.2), and the one
// way a section is written and read back. A core session checkpoint holds
// meta, chip, driver and optional faults; a fleet checkpoint holds the
// same sections, written and read by the same code, plus its own.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "snapshot/format.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::snapshot {

namespace section_id {
inline constexpr std::uint16_t kMeta = 0x0001;      // kind, fingerprint, clock
inline constexpr std::uint16_t kChip = 0x0002;      // chip evolving state
inline constexpr std::uint16_t kDriver = 0x0003;    // ChipSession/HostInterface
inline constexpr std::uint16_t kFaults = 0x0004;    // FaultPlan (optional)
inline constexpr std::uint16_t kParams = 0x0005;    // fleet create params
inline constexpr std::uint16_t kCounters = 0x0006;  // fleet counters
inline constexpr std::uint16_t kRing = 0x0007;      // fleet record ring
inline constexpr std::uint16_t kReplay = 0x0008;    // fleet replay cache
inline constexpr std::uint16_t kFlight = 0x0009;    // fleet flight (optional)
// Nine ids set nine distinct bits: no id names two sections.
static_assert(std::popcount(1u << kMeta | 1u << kChip | 1u << kDriver |
                            1u << kFaults | 1u << kParams | 1u << kCounters |
                            1u << kRing | 1u << kReplay | 1u << kFlight) == 9);
}  // namespace section_id

/// Appends section `id` at schema `version`, its payload written by
/// `write(StateWriter&)`.
template <typename Write>
void write_section(SnapshotBuilder& builder, std::uint16_t id,
                   std::uint16_t version, Write&& write) {
  std::vector<std::uint8_t> payload;
  StateWriter w(payload);
  write(w);
  builder.add_section(id, version, payload);
}

/// Reads section `id` through `load(StateReader&)`, at the one schema
/// `version` its reader knows, checked before a payload byte is parsed:
/// kMissingSection when absent, kBadSectionVersion at another version,
/// kBadPayload unless `load` consumed the payload exactly.
template <typename Load>
Result<void, SnapshotError> load_section(const SnapshotView& view,
                                         std::uint16_t id,
                                         std::uint16_t version, Load&& load) {
  using R = Result<void, SnapshotError>;
  const SectionView* section = view.find(id);
  if (section == nullptr) return R::err(SnapshotError::kMissingSection);
  if (section->version != version) {
    return R::err(SnapshotError::kBadSectionVersion);
  }
  StateReader r(section->payload, section->size);
  load(r);
  return r.exhausted() ? R::ok() : R::err(SnapshotError::kBadPayload);
}

/// `load_section` for a section its producer may leave out: absent is
/// success.
template <typename Load>
Result<void, SnapshotError> load_optional_section(const SnapshotView& view,
                                                  std::uint16_t id,
                                                  std::uint16_t version,
                                                  Load&& load) {
  if (view.find(id) == nullptr) return Result<void, SnapshotError>::ok();
  return load_section(view, id, version, load);
}

}  // namespace biosense::snapshot
