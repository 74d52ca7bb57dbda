// Snapshot container (DESIGN.md §13): round-trips, forward-compatible
// unknown-section skip, and the corruption contract — EVERY single-bit
// flip, EVERY truncation length and EVERY torn tail must be rejected with
// a typed error (never UB, never a crash). Also covers the crash-safe
// CheckpointStore rotation and its fallback to the previous good slot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "snapshot/atomic_file.hpp"
#include "snapshot/format.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::snapshot {
namespace {

std::vector<std::uint8_t> sample_snapshot() {
  SnapshotBuilder builder;
  {
    std::vector<std::uint8_t> payload;
    StateWriter w(payload);
    w.u32(0xdeadbeef);
    w.f64(3.25);
    w.b(true);
    builder.add_section(0x0001, 1, payload);
  }
  {
    std::vector<std::uint8_t> payload;
    StateWriter w(payload);
    w.vec_f64({1.0, 2.0, 4.0});
    w.u64(77);
    builder.add_section(0x0002, 3, payload);
  }
  return builder.finish();
}

/// An interrupted overwrite: `bytes` from `offset` on replaced with the
/// stale junk a sector still held, drawn from `junk_seed`.
void tear_tail(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint64_t junk_seed) {
  Rng junk(junk_seed);
  for (std::size_t i = offset; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(junk.next_u64());
  }
}

TEST(SnapshotFormat, RoundTripsSections) {
  const auto bytes = sample_snapshot();
  const auto view = SnapshotView::parse(bytes);
  ASSERT_TRUE(view);
  ASSERT_EQ(view->sections().size(), 2u);

  const SectionView* first = view->find(0x0001);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1);
  StateReader r(first->payload, first->size);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.b());
  EXPECT_TRUE(r.exhausted());

  const SectionView* second = view->find(0x0002);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->version, 3);
  StateReader r2(second->payload, second->size);
  std::vector<double> v;
  r2.vec_f64(v, 3);
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(r2.u64(), 77u);
  EXPECT_TRUE(r2.exhausted());

  EXPECT_EQ(view->find(0x0003), nullptr);
}

TEST(SnapshotFormat, UnknownSectionsAreSkippedForwardCompatibly) {
  SnapshotBuilder builder;
  std::vector<std::uint8_t> known{1, 2, 3};
  std::vector<std::uint8_t> future(40, 0xAB);  // id from a newer writer
  builder.add_section(0x0001, 1, known);
  builder.add_section(0x7777, 9, future);
  const auto bytes = builder.finish();

  const auto view = SnapshotView::parse(bytes);
  ASSERT_TRUE(view);
  // A reader that only knows 0x0001 finds its section and never touches
  // the unknown one — no error, no misparse.
  const SectionView* section = view->find(0x0001);
  ASSERT_NE(section, nullptr);
  ASSERT_EQ(section->size, 3u);
  EXPECT_EQ(section->payload[0], 1);
}

TEST(SnapshotFormat, EmptySnapshotRoundTrips) {
  SnapshotBuilder builder;
  const auto bytes = builder.finish();
  EXPECT_EQ(bytes.size(), kHeaderSize);
  const auto view = SnapshotView::parse(bytes);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view->sections().empty());
}

TEST(SnapshotFormat, DuplicateSectionIdThrowsAtBuild) {
  SnapshotBuilder builder;
  std::vector<std::uint8_t> payload{1};
  builder.add_section(0x0001, 1, payload);
  EXPECT_THROW(builder.add_section(0x0001, 1, payload), ConfigError);
}

TEST(SnapshotFormat, EverySingleBitFlipIsRejectedTyped) {
  const auto good = sample_snapshot();
  ASSERT_TRUE(SnapshotView::parse(good));
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = good;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto view = SnapshotView::parse(corrupt);
      ASSERT_FALSE(view) << "flip survived at byte " << byte << " bit "
                         << bit;
      // The rejection is typed — the name lookup must resolve (the enum
      // value is in range), whatever the specific reason.
      EXPECT_STRNE(snapshot_error_name(view.error()), "unknown");
    }
  }
}

TEST(SnapshotFormat, EveryTruncationLengthIsRejectedTyped) {
  const auto good = sample_snapshot();
  for (std::size_t n = 0; n < good.size(); ++n) {
    const auto view = SnapshotView::parse(good.data(), n);
    ASSERT_FALSE(view) << "truncation to " << n << " bytes survived";
  }
  // Trailing garbage is corruption too, not slack.
  auto extended = good;
  extended.push_back(0x00);
  EXPECT_FALSE(SnapshotView::parse(extended));
}

TEST(SnapshotFormat, EveryTornTailIsRejectedTyped) {
  // Truncations and single-bit flips are covered exhaustively above; an
  // interrupted overwrite leaves the new prefix and stale junk behind it.
  const auto good = sample_snapshot();
  int applied = 0;
  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    auto corrupt = good;
    tear_tail(corrupt, offset, 99 + offset);
    // Junk that happens to equal the new bytes is no corruption: only a
    // changed file must be rejected.
    if (corrupt == good) continue;
    ++applied;
    const auto view = SnapshotView::parse(corrupt);
    ASSERT_FALSE(view) << "torn tail at " << offset << " survived";
    EXPECT_STRNE(snapshot_error_name(view.error()), "unknown");
  }
  EXPECT_GE(applied, static_cast<int>(good.size()) - 2);
}

TEST(StateReader, RejectsMalformedPrimitives) {
  std::vector<std::uint8_t> bytes;
  StateWriter w(bytes);
  w.u8(2);  // not a valid strict bool
  StateReader r(bytes.data(), bytes.size());
  (void)r.b();
  EXPECT_FALSE(r.ok());

  // A vector length field larger than the remaining payload can back must
  // fail before any allocation is sized from it.
  std::vector<std::uint8_t> huge;
  StateWriter w2(huge);
  w2.u32(0x40000000);
  StateReader r2(huge.data(), huge.size());
  std::vector<double> out;
  r2.vec_f64(out);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(out.empty());

  // A writer over a pre-filled vector (a frame-header placeholder) counts
  // only its own bytes; raw() appends them with no length prefix. Read
  // back little-endian, and a read past the end returns zero and latches
  // the failure flag.
  std::vector<std::uint8_t> framed{0xee, 0xee, 0xee};
  StateWriter w3(framed);
  w3.u16(0x0201);
  const std::uint8_t echo[] = {0x03};
  w3.raw(echo, sizeof(echo));
  ASSERT_EQ(w3.size(), 3u);
  EXPECT_EQ(w3.data(), framed.data() + 3);
  StateReader r3(w3.data(), w3.size());
  EXPECT_EQ(r3.u16(), 0x0201u);
  EXPECT_FALSE(r3.exhausted());
  EXPECT_EQ(r3.u8(), 0x03u);
  EXPECT_TRUE(r3.exhausted());
  EXPECT_EQ(r3.u32(), 0u);
  EXPECT_FALSE(r3.ok());
}

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const std::string dir = ::testing::TempDir() + "biosense_snapshot_aw";
  CheckpointStore store(dir, "probe");  // creates the directory
  const std::string path = dir + "/blob.bin";
  const std::vector<std::uint8_t> payload{9, 8, 7, 6, 5};
  ASSERT_TRUE(write_file_atomic(path, payload));
  const auto back = read_file(path);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, payload);
  // The temp file of the rename protocol must not linger.
  EXPECT_FALSE(read_file(path + ".tmp"));
}

TEST(CheckpointStore, SaveLoadAndRotation) {
  const std::string dir = ::testing::TempDir() + "biosense_snapshot_rot";
  CheckpointStore store(dir, "session");

  SnapshotBuilder b1;
  std::vector<std::uint8_t> p1{1};
  b1.add_section(0x0001, 1, p1);
  const auto v1 = b1.finish();
  SnapshotBuilder b2;
  std::vector<std::uint8_t> p2{2, 2};
  b2.add_section(0x0001, 1, p2);
  const auto v2 = b2.finish();

  ASSERT_TRUE(store.save(v1));
  auto loaded = store.load();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(*loaded, v1);

  ASSERT_TRUE(store.save(v2));
  loaded = store.load();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(*loaded, v2);  // newest wins
  const auto prev = read_file(store.prev_path());
  ASSERT_TRUE(prev);
  EXPECT_EQ(*prev, v1);  // rotation demoted the old current
}

TEST(CheckpointStore, FallsBackToPreviousGoodOnCorruption) {
  const std::string dir = ::testing::TempDir() + "biosense_snapshot_fb";
  CheckpointStore store(dir, "session");

  SnapshotBuilder b1;
  std::vector<std::uint8_t> p1{1};
  b1.add_section(0x0001, 1, p1);
  const auto v1 = b1.finish();
  SnapshotBuilder b2;
  std::vector<std::uint8_t> p2{2, 2};
  b2.add_section(0x0001, 1, p2);
  const auto v2 = b2.finish();
  ASSERT_TRUE(store.save(v1));
  ASSERT_TRUE(store.save(v2));

  // Bit rot in the current slot: load falls back to the previous good one.
  auto rotted = v2;
  rotted[rotted.size() / 2] ^= 0x10;
  ASSERT_TRUE(write_file_atomic(store.path(), rotted));
  auto loaded = store.load();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(*loaded, v1);

  // Torn tail in .prev as well: both slots bad -> the current slot's
  // typed error, never a crash.
  auto torn = v1;
  tear_tail(torn, torn.size() / 2, 5);
  ASSERT_NE(torn, v1);
  ASSERT_TRUE(write_file_atomic(store.prev_path(), torn));
  const auto both_bad = store.load();
  ASSERT_FALSE(both_bad);
  EXPECT_STRNE(snapshot_error_name(both_bad.error()), "unknown");
}

TEST(CheckpointStore, MissingFilesAreIoErrorNotCrash) {
  const std::string dir = ::testing::TempDir() + "biosense_snapshot_missing";
  CheckpointStore store(dir, "never_saved");
  const auto loaded = store.load();
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error(), SnapshotError::kIoError);
}

}  // namespace
}  // namespace biosense::snapshot
