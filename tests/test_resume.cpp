// Bit-exact checkpoint/resume (DESIGN.md §13): checkpoint at frame N and
// resume must produce output bitwise identical to an uninterrupted run —
// for both chips, at any thread count, including under a lossy-link fault
// plan. Also holds the typed-failure line: restoring onto the wrong
// session shape or from corrupted bytes is a SnapshotError, never UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/session_options.hpp"
#include "core/session_snapshot.hpp"
#include "neurochip/array.hpp"
#include "neurochip/signal_source.hpp"
#include "snapshot/format.hpp"

namespace biosense::core {
namespace {

std::uint64_t hash_frames(std::uint64_t h,
                          const std::vector<neurochip::NeuroFrame>& frames) {
  for (const auto& f : frames) {
    h = fnv1a(h, &f.t, sizeof(f.t));
    h = fnv1a(h, &f.masked, sizeof(f.masked));
    h = fnv1a(h, f.v_in.data(), f.v_in.size() * sizeof(double));
    h = fnv1a(h, f.codes.data(), f.codes.size() * sizeof(std::int32_t));
  }
  return h;
}

SessionOptions neuro_options(bool lossy) {
  SessionOptions opts;
  opts.kind(ChipKind::kNeuro)
      .rows(8)
      .cols(8)
      .chip_seed(20260808)
      .link_seed(555)
      .pool_frames(4)
      .queue_depth(4)
      .label("");
  if (lossy) {
    faults::FaultPlanConfig plan;
    plan.seed = 77;
    plan.link.bit_error_rate = 1e-4;
    plan.link.drop_prob = 0.01;
    plan.link.truncate_prob = 0.01;
    opts.fault_plan(plan);
  }
  return opts;
}

double neuro_period(const NeuroSession& s) {
  return (1.0 / s.chip->config().frame_rate).value();
}

/// Uninterrupted reference: frames 0..total over one session.
std::uint64_t reference_hash(const SessionOptions& opts, int total) {
  auto bundle = opts.build_neuro();
  const auto frames = bundle.session->record(
      neurochip::ConstantSource(2e-4), 0.0, total);
  return hash_frames(kFnv1aOffset, frames);
}

/// Interrupted run: frames 0..cut on one session, checkpoint, restore into
/// a freshly built twin, frames cut..total there.
std::uint64_t resumed_hash(const SessionOptions& opts, int cut, int total) {
  auto first = opts.build_neuro();
  const auto head =
      first.session->record(neurochip::ConstantSource(2e-4), 0.0, cut);
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kNeuro;
  meta.frames_done = static_cast<std::uint64_t>(cut);
  meta.t = cut * neuro_period(first);
  const auto bytes = checkpoint_neuro(first, meta);

  auto second = opts.build_neuro();
  const auto restored = restore_neuro(second, bytes);
  EXPECT_TRUE(restored);
  EXPECT_EQ(restored->frames_done, static_cast<std::uint64_t>(cut));

  const auto tail = second.session->record(neurochip::ConstantSource(2e-4),
                                           restored->t, total - cut);
  std::uint64_t h = hash_frames(kFnv1aOffset, head);
  return hash_frames(h, tail);
}

TEST(Resume, NeuroBitExactAcrossThreadCounts) {
  const auto opts = neuro_options(false);
  const std::uint64_t reference = [&] {
    set_max_threads(1);
    return reference_hash(opts, 12);
  }();
  for (const int threads : {1, 2, 8}) {
    set_max_threads(threads);
    EXPECT_EQ(reference_hash(opts, 12), reference)
        << "reference differs at " << threads << " threads";
    EXPECT_EQ(resumed_hash(opts, 5, 12), reference)
        << "resume differs at " << threads << " threads";
  }
  set_max_threads(1);
}

TEST(Resume, NeuroBitExactUnderLossyLink) {
  const auto opts = neuro_options(true);
  for (const int threads : {1, 2, 8}) {
    set_max_threads(threads);
    const std::uint64_t reference = reference_hash(opts, 12);
    EXPECT_EQ(resumed_hash(opts, 7, 12), reference)
        << "lossy resume differs at " << threads << " threads";
  }
  set_max_threads(1);
}

TEST(Resume, NeuroCheckpointAtEveryCutPoint) {
  set_max_threads(2);
  const auto opts = neuro_options(false);
  const std::uint64_t reference = reference_hash(opts, 8);
  for (int cut = 1; cut < 8; ++cut) {
    EXPECT_EQ(resumed_hash(opts, cut, 8), reference)
        << "resume differs for cut " << cut;
  }
  set_max_threads(1);
}

SessionOptions dna_options() {
  SessionOptions opts;
  opts.kind(ChipKind::kDna)
      .rows(4)
      .cols(4)
      .chip_seed(424242)
      .link_seed(99)
      .bit_error_rate(2e-4)  // exercises the retry/merge path
      .label("");
  return opts;
}

/// One acquisition round: every site once, results folded into `h`.
std::uint64_t dna_round(DnaSession& s, std::uint64_t h) {
  const int cols = s.chip->cols();
  for (int site = 0; site < s.chip->sites(); ++site) {
    const auto current = s.host->acquire_site(site / cols, site % cols, 7);
    std::uint64_t word = 0;
    if (current) {
      std::memcpy(&word, &*current, sizeof(word));
    } else {
      word = 0x8000000000000000ULL |
             static_cast<std::uint64_t>(current.error());
    }
    h = fnv1a(h, &word, sizeof(word));
  }
  return h;
}

TEST(Resume, DnaBitExactAcrossCheckpoint) {
  const auto opts = dna_options();
  constexpr int kRounds = 6;
  constexpr int kCut = 2;

  auto reference = opts.build_dna();
  std::uint64_t ref_hash = kFnv1aOffset;
  for (int r = 0; r < kRounds; ++r) ref_hash = dna_round(reference, ref_hash);

  auto first = opts.build_dna();
  std::uint64_t resumed_hash = kFnv1aOffset;
  for (int r = 0; r < kCut; ++r) resumed_hash = dna_round(first, resumed_hash);
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kDna;
  meta.frames_done = kCut;
  const auto bytes = checkpoint_dna(first, meta);

  auto second = opts.build_dna();
  const auto restored = restore_dna(second, bytes);
  ASSERT_TRUE(restored) << "restore failed";
  EXPECT_EQ(restored->frames_done, static_cast<std::uint64_t>(kCut));
  for (int r = kCut; r < kRounds; ++r) {
    resumed_hash = dna_round(second, resumed_hash);
  }
  EXPECT_EQ(resumed_hash, ref_hash);
}

TEST(Resume, FaultPlanCursorTravelsWithTheCheckpoint) {
  const auto opts = dna_options();
  faults::FaultPlanConfig plan_cfg;
  plan_cfg.seed = 3;
  faults::FaultPlan plan(plan_cfg);
  (void)plan.next_file_corruption(128);
  (void)plan.next_file_corruption(128);

  auto session = opts.build_dna();
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kDna;
  const auto bytes = checkpoint_dna(session, meta, &plan);

  faults::FaultPlan resumed_plan(plan_cfg);
  auto target = opts.build_dna();
  ASSERT_TRUE(restore_dna(target, bytes, &resumed_plan));
  EXPECT_EQ(resumed_plan.file_corruption_cursor(), 2u);
}

TEST(Resume, WrongShapeIsTypedStateMismatch) {
  const auto opts = neuro_options(false);
  auto source = opts.build_neuro();
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kNeuro;
  const auto bytes = checkpoint_neuro(source, meta);

  auto wide = neuro_options(false);
  wide.rows(16).cols(8);
  auto target = wide.build_neuro();
  const auto restored = restore_neuro(target, bytes);
  ASSERT_FALSE(restored);
  EXPECT_EQ(restored.error(), snapshot::SnapshotError::kStateMismatch);

  // Kind mismatch is equally typed: a neuro checkpoint cannot restore a
  // DNA session.
  auto dna = dna_options().build_dna();
  const auto cross = restore_dna(dna, bytes);
  ASSERT_FALSE(cross);
  EXPECT_EQ(cross.error(), snapshot::SnapshotError::kStateMismatch);

  // Checkpoints store the fingerprint, so its value is a file-format
  // constant: checkpoints written by earlier builds must keep matching.
  EXPECT_EQ(session_fingerprint(ChipKind::kNeuro, 8, 11),
            0xfb7cfd959bcfa540ULL);
  EXPECT_EQ(session_fingerprint(ChipKind::kDna, 16, 19),
            0x92e558643572c021ULL);
}

/// `bytes` re-encoded with section `id` at schema `version`, payload and
/// every other section unchanged (all CRCs recomputed).
std::vector<std::uint8_t> with_section_version(
    const std::vector<std::uint8_t>& bytes, std::uint16_t id,
    std::uint16_t version) {
  const auto view = snapshot::SnapshotView::parse(bytes);
  EXPECT_TRUE(view);
  snapshot::SnapshotBuilder builder;
  for (const snapshot::SectionView& section : view->sections()) {
    builder.add_section(
        section.id, section.id == id ? version : section.version,
        std::vector<std::uint8_t>(section.payload,
                                  section.payload + section.size));
  }
  return builder.finish();
}

TEST(Resume, ChipSectionVersionIsCheckedBeforeParsing) {
  // The neural chip section is version 2 (the counter-based bank); a
  // version-1 section (the per-pixel generator layout) is refused typed
  // before a byte of it is parsed, and version 2 round-trips bit-exactly.
  const auto opts = neuro_options(false);
  auto source = opts.build_neuro();
  (void)source.session->record(neurochip::ConstantSource(2e-4), 0.0, 3);
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kNeuro;
  meta.frames_done = 3;
  meta.t = 3 * neuro_period(source);
  const auto bytes = checkpoint_neuro(source, meta);
  const auto view = snapshot::SnapshotView::parse(bytes);
  ASSERT_TRUE(view);
  ASSERT_NE(view->find(snap_section::kChip), nullptr);
  EXPECT_EQ(view->find(snap_section::kChip)->version, 2);
  EXPECT_EQ(neurochip::kChipStateVersion, 2);

  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{3}}) {
    auto target = opts.build_neuro();
    const auto restored = restore_neuro(
        target, with_section_version(bytes, snap_section::kChip, version));
    ASSERT_FALSE(restored) << "version " << version;
    EXPECT_EQ(restored.error(), snapshot::SnapshotError::kBadSectionVersion);
    EXPECT_STREQ(snapshot::snapshot_error_name(restored.error()),
                 "bad_section_version");
  }

  auto twin = opts.build_neuro();
  const auto restored = restore_neuro(twin, bytes);
  ASSERT_TRUE(restored);
  EXPECT_EQ(checkpoint_neuro(twin, *restored), bytes);

  // The DNA chip layout did not change: its section stays version 1.
  auto dna = dna_options().build_dna();
  SessionCheckpointMeta dna_meta;
  dna_meta.kind = ChipKind::kDna;
  const auto dna_bytes = checkpoint_dna(dna, dna_meta);
  const auto dna_view = snapshot::SnapshotView::parse(dna_bytes);
  ASSERT_TRUE(dna_view);
  EXPECT_EQ(dna_view->find(snap_section::kChip)->version, 1);
  auto dna_target = dna_options().build_dna();
  EXPECT_EQ(restore_dna(dna_target,
                        with_section_version(dna_bytes, snap_section::kChip, 2))
                .error(),
            snapshot::SnapshotError::kBadSectionVersion);
}

TEST(Resume, CorruptedSessionCheckpointIsTypedNeverUB) {
  const auto opts = neuro_options(false);
  auto source = opts.build_neuro();
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kNeuro;
  const auto good = checkpoint_neuro(source, meta);

  faults::FaultPlanConfig cfg;
  cfg.seed = 11;
  faults::FaultPlan plan(cfg);
  for (std::uint64_t index = 0; index < 24; ++index) {
    auto corrupt = good;
    plan.file_corruption(index, corrupt.size()).apply(corrupt);
    if (corrupt == good) continue;
    auto target = opts.build_neuro();
    const auto restored = restore_neuro(target, corrupt);
    ASSERT_FALSE(restored) << "corruption " << index << " survived";
    EXPECT_STRNE(snapshot::snapshot_error_name(restored.error()), "unknown");
  }
}

}  // namespace
}  // namespace biosense::core
