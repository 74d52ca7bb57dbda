#include "core/session_snapshot.hpp"

#include "common/hash.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::core {

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

namespace {

using RestoreResult = Result<SessionCheckpointMeta, snapshot::SnapshotError>;

template <typename Bundle>
std::vector<std::uint8_t> checkpoint(const Bundle& session,
                                     const SessionCheckpointMeta& meta) {
  snapshot::SnapshotBuilder builder;
  write_session(builder, session, meta);
  return builder.finish();
}

template <typename Bundle>
RestoreResult restore(Bundle& session,
                      const std::vector<std::uint8_t>& bytes) {
  const auto view = snapshot::SnapshotView::parse(bytes);
  if (!view) return RestoreResult::err(view.error());
  return read_session(*view, session);
}

}  // namespace

std::vector<std::uint8_t> checkpoint_neuro(const NeuroSession& session,
                                           const SessionCheckpointMeta& meta) {
  return checkpoint(session, meta);
}

std::vector<std::uint8_t> checkpoint_dna(const DnaSession& session,
                                         const SessionCheckpointMeta& meta) {
  return checkpoint(session, meta);
}

RestoreResult restore_neuro(NeuroSession& session,
                            const std::vector<std::uint8_t>& bytes) {
  return restore(session, bytes);
}

RestoreResult restore_dna(DnaSession& session,
                          const std::vector<std::uint8_t>& bytes) {
  return restore(session, bytes);
}

}  // namespace biosense::core
