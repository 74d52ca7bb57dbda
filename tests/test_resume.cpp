// Bit-exact checkpoint/resume (DESIGN.md §13): checkpoint at frame N and
// resume must produce output bitwise identical to an uninterrupted run —
// for both chips, at any thread count, including under a lossy-link fault
// plan. Also holds the typed-failure line: restoring onto the wrong
// session shape or from corrupted bytes is a SnapshotError, never UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
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
#include "snapshot/sections.hpp"

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
      .label("");
  faults::FaultPlanConfig plan;
  plan.link.bit_error_rate = 2e-4;  // exercises the retry/merge path
  opts.fault_plan(plan);
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
  ASSERT_NE(view->find(snapshot::section_id::kChip), nullptr);
  EXPECT_EQ(view->find(snapshot::section_id::kChip)->version, 2);
  EXPECT_EQ(neurochip::kChipStateVersion, 2);

  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{3}}) {
    auto target = opts.build_neuro();
    const auto restored = restore_neuro(
        target,
        with_section_version(bytes, snapshot::section_id::kChip, version));
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
  EXPECT_EQ(dna_view->find(snapshot::section_id::kChip)->version, 1);
  auto dna_target = dna_options().build_dna();
  EXPECT_EQ(restore_dna(dna_target,
                        with_section_version(dna_bytes,
                                             snapshot::section_id::kChip, 2))
                .error(),
            snapshot::SnapshotError::kBadSectionVersion);
}

TEST(Resume, CorruptedSessionCheckpointIsTypedNeverUB) {
  const auto opts = neuro_options(false);
  auto source = opts.build_neuro();
  SessionCheckpointMeta meta;
  meta.kind = ChipKind::kNeuro;
  const auto good = checkpoint_neuro(source, meta);

  // A truncation, a bit flip and a torn tail (stale junk from the offset
  // on) at offsets across the header, the section table and the payloads.
  Rng pick(11);
  for (int i = 0; i < 8; ++i) {
    const auto offset = static_cast<std::size_t>(
        pick.uniform_int(1, static_cast<std::int64_t>(good.size()) - 1));
    auto truncated = good;
    truncated.resize(offset);
    auto flipped = good;
    flipped[offset] ^= static_cast<std::uint8_t>(1u << (i % 8));
    auto torn = good;
    Rng junk(pick.next_u64());
    for (std::size_t j = offset; j < torn.size(); ++j) {
      torn[j] = static_cast<std::uint8_t>(junk.next_u64());
    }
    for (const auto* corrupt : {&truncated, &flipped, &torn}) {
      if (*corrupt == good) continue;
      auto target = opts.build_neuro();
      const auto restored = restore_neuro(target, *corrupt);
      ASSERT_FALSE(restored) << "corruption at " << offset << " survived";
      EXPECT_STRNE(snapshot::snapshot_error_name(restored.error()),
                   "unknown");
    }
  }
}

/// `bytes` as a writer given a FaultPlan wrote them before section id 4
/// was retired: the same sections, then id 4 at version 1 holding the
/// plan's u64 file-corruption cursor.
std::vector<std::uint8_t> with_retired_faults_section(
    const std::vector<std::uint8_t>& bytes, std::uint64_t cursor) {
  const auto view = snapshot::SnapshotView::parse(bytes);
  EXPECT_TRUE(view);
  snapshot::SnapshotBuilder builder;
  for (const snapshot::SectionView& section : view->sections()) {
    builder.add_section(
        section.id, section.version,
        std::vector<std::uint8_t>(section.payload,
                                  section.payload + section.size));
  }
  std::vector<std::uint8_t> payload;
  snapshot::StateWriter(payload).u64(cursor);
  builder.add_section(0x0004, 1, payload);
  return builder.finish();
}

TEST(Resume, RetiredFaultsSectionIsSkipped) {
  // Checkpoints that carry the retired id-4 section (the digests are what
  // the earlier writer produced for these sessions) restore, resume
  // bit-exactly and re-checkpoint to today's plan-less bytes.
  set_max_threads(1);
  const neurochip::ConstantSource source(2e-4);
  auto neuro = neuro_options(true).build_neuro();
  (void)neuro.session->record(source, 0.0, 3);
  SessionCheckpointMeta neuro_meta;
  neuro_meta.kind = ChipKind::kNeuro;
  neuro_meta.frames_done = 3;
  neuro_meta.t = 3 * neuro_period(neuro);
  const auto neuro_bytes = checkpoint_neuro(neuro, neuro_meta);
  const auto neuro_old = with_retired_faults_section(neuro_bytes, 1);
  EXPECT_EQ(fnv1a(kFnv1aOffset, neuro_old.data(), neuro_old.size()),
            0x8a45e34ce57b7792ull);
  EXPECT_EQ(neuro_old.size(), 5434u);

  auto neuro_twin = neuro_options(true).build_neuro();
  const auto neuro_restored = restore_neuro(neuro_twin, neuro_old);
  ASSERT_TRUE(neuro_restored);
  EXPECT_EQ(checkpoint_neuro(neuro_twin, *neuro_restored), neuro_bytes);
  EXPECT_EQ(hash_frames(kFnv1aOffset, neuro_twin.session->record(
                                          source, neuro_restored->t, 4)),
            hash_frames(kFnv1aOffset,
                        neuro.session->record(source, neuro_meta.t, 4)));

  auto dna = dna_options().build_dna();
  (void)dna_round(dna, kFnv1aOffset);
  SessionCheckpointMeta dna_meta;
  dna_meta.kind = ChipKind::kDna;
  dna_meta.frames_done = 1;
  const auto dna_bytes = checkpoint_dna(dna, dna_meta);
  const auto dna_old = with_retired_faults_section(dna_bytes, 1);
  EXPECT_EQ(fnv1a(kFnv1aOffset, dna_old.data(), dna_old.size()),
            0x43aecea233d0039full);
  EXPECT_EQ(dna_old.size(), 2634u);

  auto dna_twin = dna_options().build_dna();
  const auto dna_restored = restore_dna(dna_twin, dna_old);
  ASSERT_TRUE(dna_restored);
  EXPECT_EQ(checkpoint_dna(dna_twin, *dna_restored), dna_bytes);
  EXPECT_EQ(dna_round(dna_twin, kFnv1aOffset), dna_round(dna, kFnv1aOffset));
}

TEST(Resume, CheckpointBytesArePinned) {
  // A checkpoint is a file format: the bytes written for fixed sessions
  // are pinned by digest and size, so any change to a section id, version
  // or payload layout shows here.
  set_max_threads(1);
  auto neuro = neuro_options(true).build_neuro();
  (void)neuro.session->record(neurochip::ConstantSource(2e-4), 0.0, 3);
  SessionCheckpointMeta neuro_meta;
  neuro_meta.kind = ChipKind::kNeuro;
  neuro_meta.frames_done = 3;
  neuro_meta.t = 3 * neuro_period(neuro);

  auto dna = dna_options().build_dna();
  (void)dna_round(dna, kFnv1aOffset);
  SessionCheckpointMeta dna_meta;
  dna_meta.kind = ChipKind::kDna;
  dna_meta.frames_done = 1;

  struct Pinned {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::uint64_t digest;
    std::size_t size;
  };
  const Pinned pinned[] = {
      {"neuro", checkpoint_neuro(neuro, neuro_meta),
       0x6007491df9cd66e0ull, 5417},
      {"dna", checkpoint_dna(dna, dna_meta), 0x191a27462729d6b4ull, 2617},
  };
  for (const Pinned& p : pinned) {
    const std::uint64_t digest =
        fnv1a(kFnv1aOffset, p.bytes.data(), p.bytes.size());
    std::printf("%s: digest 0x%016llx bytes %zu\n", p.name,
                static_cast<unsigned long long>(digest), p.bytes.size());
    EXPECT_EQ(digest, p.digest) << p.name;
    EXPECT_EQ(p.bytes.size(), p.size) << p.name;
  }
}

}  // namespace
}  // namespace biosense::core
