#include "core/session_snapshot.hpp"

#include "common/hash.hpp"
#include "dnachip/chip.hpp"
#include "neurochip/array.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::core {

namespace {

void write_meta(snapshot::StateWriter& w, ChipKind kind, int rows, int cols,
                const SessionCheckpointMeta& meta) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(session_fingerprint(kind, rows, cols));
  w.u64(meta.frames_done);
  w.f64(meta.t);
}

/// Parses + checks the meta section against the restore target's shape.
Result<SessionCheckpointMeta, snapshot::SnapshotError> read_meta(
    const snapshot::SnapshotView& view, ChipKind expected_kind, int rows,
    int cols) {
  using R = Result<SessionCheckpointMeta, snapshot::SnapshotError>;
  const auto section = view.section(snap_section::kMeta, 1);
  if (!section) return R::err(section.error());
  snapshot::StateReader r(section->payload, section->size);
  const std::uint8_t kind = r.u8();
  const std::uint64_t fingerprint = r.u64();
  SessionCheckpointMeta meta;
  meta.frames_done = r.u64();
  meta.t = r.f64();
  if (!r.exhausted() || kind > static_cast<std::uint8_t>(ChipKind::kDna)) {
    return R::err(snapshot::SnapshotError::kBadPayload);
  }
  meta.kind = static_cast<ChipKind>(kind);
  if (meta.kind != expected_kind ||
      fingerprint != session_fingerprint(expected_kind, rows, cols)) {
    return R::err(snapshot::SnapshotError::kStateMismatch);
  }
  return R::ok(meta);
}

/// Runs one hook against a required section at the schema version the
/// hook reads; kBadPayload unless the hook consumed the section exactly.
template <typename Target>
Result<void, snapshot::SnapshotError> load_section(
    const snapshot::SnapshotView& view, std::uint16_t id,
    std::uint16_t version, Target& target) {
  using R = Result<void, snapshot::SnapshotError>;
  const auto section = view.section(id, version);
  if (!section) return R::err(section.error());
  snapshot::StateReader r(section->payload, section->size);
  target.load_state(r);
  if (!r.exhausted()) return R::err(snapshot::SnapshotError::kBadPayload);
  return R::ok();
}

void add_fault_section(snapshot::SnapshotBuilder& builder,
                       const faults::FaultPlan* plan) {
  if (plan == nullptr) return;
  std::vector<std::uint8_t> payload;
  snapshot::StateWriter w(payload);
  plan->save_state(w);
  builder.add_section(snap_section::kFaults, 1, payload);
}

Result<void, snapshot::SnapshotError> maybe_load_fault_section(
    const snapshot::SnapshotView& view, faults::FaultPlan* plan) {
  using R = Result<void, snapshot::SnapshotError>;
  if (plan == nullptr) return R::ok();
  // The section is optional (older checkpoints have none) — a plan cursor
  // only restores when the producer saved one.
  if (view.find(snap_section::kFaults) == nullptr) return R::ok();
  return load_section(view, snap_section::kFaults, 1, *plan);
}

}  // namespace

std::uint64_t session_fingerprint(ChipKind kind, int rows, int cols) {
  // Hashes the little-endian u64 encoding of the shape, so the stored
  // value is the same on every host.
  std::vector<std::uint8_t> shape;
  snapshot::StateWriter w(shape);
  w.u64(static_cast<std::uint64_t>(kind));
  w.u64(static_cast<std::uint32_t>(rows));
  w.u64(static_cast<std::uint32_t>(cols));
  return fnv1a(kFnv1aOffset, shape.data(), shape.size());
}

std::vector<std::uint8_t> checkpoint_neuro(const NeuroSession& session,
                                           const SessionCheckpointMeta& meta,
                                           const faults::FaultPlan* plan) {
  snapshot::SnapshotBuilder builder;
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    write_meta(w, ChipKind::kNeuro, session.chip->rows(),
               session.chip->cols(), meta);
    builder.add_section(snap_section::kMeta, 1, payload);
  }
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    session.chip->save_state(w);
    builder.add_section(snap_section::kChip, neurochip::kChipStateVersion,
                        payload);
  }
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    session.session->save_state(w);
    builder.add_section(snap_section::kDriver, 1, payload);
  }
  add_fault_section(builder, plan);
  return builder.finish();
}

std::vector<std::uint8_t> checkpoint_dna(const DnaSession& session,
                                         const SessionCheckpointMeta& meta,
                                         const faults::FaultPlan* plan) {
  snapshot::SnapshotBuilder builder;
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    write_meta(w, ChipKind::kDna, session.chip->rows(), session.chip->cols(),
               meta);
    builder.add_section(snap_section::kMeta, 1, payload);
  }
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    session.chip->save_state(w);
    builder.add_section(snap_section::kChip, dnachip::kChipStateVersion,
                        payload);
  }
  {
    std::vector<std::uint8_t> payload;
    snapshot::StateWriter w(payload);
    session.host->save_state(w);
    builder.add_section(snap_section::kDriver, 1, payload);
  }
  add_fault_section(builder, plan);
  return builder.finish();
}

Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_neuro(
    NeuroSession& session, const std::vector<std::uint8_t>& bytes,
    faults::FaultPlan* plan) {
  using R = Result<SessionCheckpointMeta, snapshot::SnapshotError>;
  auto view = snapshot::SnapshotView::parse(bytes);
  if (!view) return R::err(view.error());
  auto meta = read_meta(*view, ChipKind::kNeuro, session.chip->rows(),
                        session.chip->cols());
  if (!meta) return meta;
  if (auto chip = load_section(*view, snap_section::kChip,
                               neurochip::kChipStateVersion, *session.chip);
      !chip) {
    return R::err(chip.error());
  }
  if (auto driver =
          load_section(*view, snap_section::kDriver, 1, *session.session);
      !driver) {
    return R::err(driver.error());
  }
  if (auto faults = maybe_load_fault_section(*view, plan); !faults) {
    return R::err(faults.error());
  }
  return meta;
}

Result<SessionCheckpointMeta, snapshot::SnapshotError> restore_dna(
    DnaSession& session, const std::vector<std::uint8_t>& bytes,
    faults::FaultPlan* plan) {
  using R = Result<SessionCheckpointMeta, snapshot::SnapshotError>;
  auto view = snapshot::SnapshotView::parse(bytes);
  if (!view) return R::err(view.error());
  auto meta = read_meta(*view, ChipKind::kDna, session.chip->rows(),
                        session.chip->cols());
  if (!meta) return meta;
  if (auto chip = load_section(*view, snap_section::kChip,
                               dnachip::kChipStateVersion, *session.chip);
      !chip) {
    return R::err(chip.error());
  }
  if (auto driver =
          load_section(*view, snap_section::kDriver, 1, *session.host);
      !driver) {
    return R::err(driver.error());
  }
  if (auto faults = maybe_load_fault_section(*view, plan); !faults) {
    return R::err(faults.error());
  }
  return meta;
}

}  // namespace biosense::core
