// Whole-session checkpoint assembly (DESIGN.md §13.2).
//
// `checkpoint_*` serializes a quiesced session bundle (between runs /
// acquisitions, no frames in flight) into one snapshot container;
// `restore_*` loads it back into a bundle that was *reconstructed from the
// same SessionOptions* — frozen die state (mismatch draws, fault
// injection, DAC INL) is reproduced by construction, the snapshot carries
// only the evolving state (RNG streams, calibration, filter memories,
// retry caches, stats). A fingerprint over the session's identity is
// checked before any state is touched, so restoring onto the wrong target
// is a typed kStateMismatch, not silent corruption.
//
// Resume contract (enforced by test_resume and bench_soak_replay):
// checkpoint at frame N, reconstruct, restore, run frames N..M — output is
// bitwise identical to an uninterrupted run of frames 0..M, at any thread
// count, under any link fault plan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/session_options.hpp"
#include "faults/fault_plan.hpp"
#include "snapshot/format.hpp"

namespace biosense::core {

/// Section ids of a session checkpoint (registry in DESIGN.md §13.2).
namespace snap_section {
inline constexpr std::uint16_t kMeta = 0x0001;    // identity + progress
inline constexpr std::uint16_t kChip = 0x0002;    // chip evolving state
inline constexpr std::uint16_t kDriver = 0x0003;  // ChipSession / HostInterface
inline constexpr std::uint16_t kFaults = 0x0004;  // FaultPlan cursors (optional)
}  // namespace snap_section

/// Progress metadata carried in (and returned from) a checkpoint.
struct SessionCheckpointMeta {
  ChipKind kind = ChipKind::kNeuro;
  std::uint64_t frames_done = 0;  // caller-defined progress counter
  double t = 0.0;                 // caller-defined simulation clock, s
};

/// FNV-1a identity of a session shape; a checkpoint only restores onto a
/// target with the same fingerprint.
std::uint64_t session_fingerprint(ChipKind kind, int rows, int cols);

/// Serializes a quiesced neuro session. `plan`, when non-null, adds its
/// cursor section so corruption schedules resume in place.
std::vector<std::uint8_t> checkpoint_neuro(const NeuroSession& session,
                                           const SessionCheckpointMeta& meta,
                                           const faults::FaultPlan* plan = nullptr);

std::vector<std::uint8_t> checkpoint_dna(const DnaSession& session,
                                         const SessionCheckpointMeta& meta,
                                         const faults::FaultPlan* plan = nullptr);

/// Restores a checkpoint into a freshly reconstructed session bundle.
/// Typed failure — never UB, never a partially-applied meta/driver rewind
/// that the caller cannot detect: kStateMismatch when the checkpoint was
/// taken from a different session shape, kBadSectionVersion when a section
/// carries a schema version this reader does not know (checked before its
/// payload is parsed), kMissingSection / kBadPayload when required
/// sections are absent or fail schema validation.
Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_neuro(
    NeuroSession& session, const std::vector<std::uint8_t>& bytes,
    faults::FaultPlan* plan = nullptr);

Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_dna(
    DnaSession& session, const std::vector<std::uint8_t>& bytes,
    faults::FaultPlan* plan = nullptr);

}  // namespace biosense::core
