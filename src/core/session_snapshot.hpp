// Whole-session checkpoint assembly (DESIGN.md §13.2).
//
// `write_session` serializes a quiesced session bundle (between runs /
// acquisitions, no frames in flight) into a snapshot container;
// `read_session` loads it back into a bundle that was *reconstructed from
// the same SessionOptions* — frozen die state (mismatch draws, fault
// injection, DAC INL) is reproduced by construction, the snapshot carries
// only the evolving state (RNG streams, calibration, filter memories,
// retry caches, stats). A fingerprint over the session's identity is
// checked before any state is touched, so restoring onto the wrong target
// is a typed kStateMismatch, not silent corruption. The fleet server
// writes and reads its checkpoints through the same pair, with its own
// sections around them (`snapshot/sections.hpp`).
//
// Resume contract (enforced by test_resume and bench_soak_replay):
// checkpoint at frame N, reconstruct, restore, run frames N..M — output is
// bitwise identical to an uninterrupted run of frames 0..M, at any thread
// count, under any link fault plan.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/session_options.hpp"
#include "snapshot/format.hpp"
#include "snapshot/sections.hpp"

namespace biosense::core {

/// Progress metadata carried in (and returned from) a checkpoint.
struct SessionCheckpointMeta {
  ChipKind kind = ChipKind::kNeuro;
  std::uint64_t frames_done = 0;  // caller-defined progress counter
  double t = 0.0;                 // caller-defined simulation clock, s
};

/// FNV-1a identity of a session shape; a checkpoint only restores onto a
/// target with the same fingerprint.
std::uint64_t session_fingerprint(ChipKind kind, int rows, int cols);

namespace detail {
/// What tells the two bundles apart: the kind, the chip section's version
/// (owned by the chip) and the driver member.
template <typename Bundle>
constexpr bool kIsNeuro = std::is_same_v<Bundle, NeuroSession>;
template <typename Bundle>
constexpr ChipKind kKind = kIsNeuro<Bundle> ? ChipKind::kNeuro : ChipKind::kDna;
template <typename Bundle>
constexpr std::uint16_t kChipVersion = kIsNeuro<Bundle>
                                           ? neurochip::kChipStateVersion
                                           : dnachip::kChipStateVersion;
inline ChipSession& driver(const NeuroSession& s) { return *s.session; }
inline dnachip::HostInterface& driver(const DnaSession& s) { return *s.host; }
template <typename Bundle>
std::uint64_t fingerprint(const Bundle& s) {
  return session_fingerprint(kKind<Bundle>, s.chip->rows(), s.chip->cols());
}
}  // namespace detail

/// Adds the meta, chip and driver sections of a quiesced `NeuroSession` or
/// `DnaSession` to `builder` (the bundle type sets the kind).
template <typename Bundle>
void write_session(snapshot::SnapshotBuilder& builder, const Bundle& session,
                   const SessionCheckpointMeta& meta) {
  namespace section = snapshot::section_id;
  using snapshot::StateWriter;
  snapshot::write_section(builder, section::kMeta, 1, [&](StateWriter& w) {
    w.u8(static_cast<std::uint8_t>(detail::kKind<Bundle>));
    w.u64(detail::fingerprint(session));
    w.u64(meta.frames_done);
    w.f64(meta.t);
  });
  snapshot::write_section(
      builder, section::kChip, detail::kChipVersion<Bundle>,
      [&](StateWriter& w) { session.chip->save_state(w); });
  snapshot::write_section(builder, section::kDriver, 1, [&](StateWriter& w) {
    detail::driver(session).save_state(w);
  });
}

/// Restores those sections into a freshly reconstructed bundle; other
/// sections (the fleet's own, the retired id 4 of older files) are not
/// read here. Typed failure, never UB: kStateMismatch when the checkpoint was taken
/// from a different session shape (checked before any state loads), and
/// `load_section`'s errors for a missing, unknown-version or malformed
/// section.
template <typename Bundle>
Result<SessionCheckpointMeta, snapshot::SnapshotError> read_session(
    const snapshot::SnapshotView& view, Bundle& session) {
  namespace section = snapshot::section_id;
  using snapshot::SnapshotError;
  using snapshot::StateReader;
  using R = Result<SessionCheckpointMeta, SnapshotError>;
  std::uint8_t kind = 0;
  std::uint64_t fingerprint = 0;
  SessionCheckpointMeta meta;
  const auto loaded =
      snapshot::load_section(view, section::kMeta, 1, [&](StateReader& r) {
        kind = r.u8();
        fingerprint = r.u64();
        meta.frames_done = r.u64();
        meta.t = r.f64();
      });
  if (!loaded) return R::err(loaded.error());
  if (kind > static_cast<std::uint8_t>(ChipKind::kDna)) {
    return R::err(SnapshotError::kBadPayload);
  }
  meta.kind = static_cast<ChipKind>(kind);
  if (meta.kind != detail::kKind<Bundle> ||
      fingerprint != detail::fingerprint(session)) {
    return R::err(SnapshotError::kStateMismatch);
  }
  if (const auto chip = snapshot::load_section(
          view, section::kChip, detail::kChipVersion<Bundle>,
          [&](StateReader& r) { session.chip->load_state(r); });
      !chip) {
    return R::err(chip.error());
  }
  if (const auto drv = snapshot::load_section(
          view, section::kDriver, 1,
          [&](StateReader& r) { detail::driver(session).load_state(r); });
      !drv) {
    return R::err(drv.error());
  }
  return meta;
}

/// A checkpoint file holding one bundle, and its restore.
std::vector<std::uint8_t> checkpoint_neuro(const NeuroSession& session,
                                           const SessionCheckpointMeta& meta);
std::vector<std::uint8_t> checkpoint_dna(const DnaSession& session,
                                         const SessionCheckpointMeta& meta);
Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_neuro(
    NeuroSession& session, const std::vector<std::uint8_t>& bytes);
Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_dna(
    DnaSession& session, const std::vector<std::uint8_t>& bytes);

}  // namespace biosense::core
