// FleetServer: session lifecycle over the typed client, admission control
// and explicit backpressure, mixed DNA+neuro determinism across worker
// threads, graceful degradation under fault presets, and idempotent retry
// of mutating commands over an injected lossy link (replay cache).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "dnachip/chip.hpp"
#include "faults/fault_plan.hpp"
#include "host/client.hpp"
#include "host/fleet_server.hpp"
#include "obs/metrics.hpp"
#include "obs/wire.hpp"
#include "snapshot/atomic_file.hpp"
#include "snapshot/format.hpp"
#include "snapshot/sections.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {
namespace {

FleetClient::SessionSpec neuro_spec(std::uint32_t id) {
  FleetClient::SessionSpec spec;
  spec.id = id;
  spec.kind = core::ChipKind::kNeuro;
  spec.rows = 8;
  spec.cols = 8;
  spec.seed = 10 + id;
  return spec;
}

FleetClient::SessionSpec dna_spec(std::uint32_t id) {
  FleetClient::SessionSpec spec;
  spec.id = id;
  spec.kind = core::ChipKind::kDna;
  spec.rows = 4;
  spec.cols = 4;
  spec.seed = 20 + id;
  return spec;
}

TEST(FleetServer, SessionLifecycle) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);

  ASSERT_TRUE(client.create(neuro_spec(1)));
  EXPECT_EQ(server.live_sessions(), 1u);
  ASSERT_TRUE(client.configure(1, 1, 250));  // 250 uV probe
  ASSERT_TRUE(client.start(1, 8));

  std::vector<FleetClient::Record> records;
  while (records.size() < 8) {
    const auto polled = client.poll(1, 4, records);
    ASSERT_TRUE(polled);
    if (polled->returned == 0) break;
  }
  EXPECT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);  // in-order delivery
  }

  const auto info = client.query(1);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->kind, core::ChipKind::kNeuro);
  EXPECT_EQ(info->frames_produced, 8u);
  EXPECT_EQ(info->records_polled, 8u);
  EXPECT_EQ(info->pending, 0u);

  const auto drained = client.drain(1);
  ASSERT_TRUE(drained);
  EXPECT_EQ(drained->frames, 8u);
  EXPECT_NE(drained->digest, 0u);

  ASSERT_TRUE(client.destroy(1));
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.committed_frames(), 0u);
  // The session is gone: further commands answer kNoSuchSession.
  const auto gone = client.query(1);
  EXPECT_FALSE(gone);
  EXPECT_EQ(gone.error(), HostStatus::kNoSuchSession);
}

TEST(FleetServer, DnaSessionDeliversSiteCurrents) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(dna_spec(7)));
  ASSERT_TRUE(client.configure(7, 0, 7));  // gate code
  ASSERT_TRUE(client.start(7, 4));
  std::vector<FleetClient::Record> records;
  ASSERT_TRUE(client.poll(7, 16, records));
  ASSERT_EQ(records.size(), 4u);
  for (const auto& r : records) {
    // Lossless link: payloads are IEEE bit patterns of positive currents,
    // never error sentinels.
    EXPECT_EQ(r.payload >> 63, 0u);
    double current = 0.0;
    static_assert(sizeof(current) == sizeof(r.payload));
    std::memcpy(&current, &r.payload, sizeof(current));
    EXPECT_GT(current, 0.0);
  }
}

TEST(FleetServer, DuplicateCreateRejected) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(neuro_spec(3)));
  const auto dup = client.create(neuro_spec(3));
  EXPECT_FALSE(dup);
  EXPECT_EQ(dup.error(), HostStatus::kDuplicateSession);
}

TEST(FleetServer, AdmissionControlBySessionCountAndFrameBudget) {
  FleetLimits limits;
  limits.max_sessions = 2;
  limits.frame_budget = 8;
  FleetServer server(limits);
  ServerLink link(server);
  FleetClient client(link);

  auto spec = dna_spec(1);
  spec.pool_frames = 4;
  ASSERT_TRUE(client.create(spec));

  // Frame budget: a second session asking for more than the remaining 4
  // pooled frames is refused even though a session slot is free.
  auto greedy = dna_spec(2);
  greedy.pool_frames = 5;
  const auto refused = client.create(greedy);
  EXPECT_FALSE(refused);
  EXPECT_EQ(refused.error(), HostStatus::kSessionLimit);

  auto modest = dna_spec(2);
  modest.pool_frames = 4;
  ASSERT_TRUE(client.create(modest));

  // Session cap: slot-limited now.
  auto third = dna_spec(3);
  third.pool_frames = 1;
  const auto full = client.create(third);
  EXPECT_FALSE(full);
  EXPECT_EQ(full.error(), HostStatus::kSessionLimit);

  // Destroy releases budget and slots.
  ASSERT_TRUE(client.destroy(1));
  EXPECT_EQ(server.committed_frames(), 4u);
  ASSERT_TRUE(client.create(third));
}

TEST(FleetServer, ExplicitBackpressure) {
  FleetLimits limits;
  limits.max_pending = 16;
  FleetServer server(limits);
  ServerLink link(server);
  FleetClient client(link);
  auto spec = neuro_spec(1);
  spec.ring_depth = 4;
  ASSERT_TRUE(client.create(spec));

  // Backlog cap: a start beyond max_pending is refused with kBackpressure.
  const auto refused = client.start(1, 17);
  EXPECT_FALSE(refused);
  EXPECT_EQ(refused.error(), HostStatus::kBackpressure);
  ASSERT_TRUE(client.start(1, 12));
  const auto more = client.start(1, 5);  // 12 + 5 > 16
  EXPECT_FALSE(more);
  EXPECT_EQ(more.error(), HostStatus::kBackpressure);

  // Ring cap: a poll that cannot absorb the backlog reports backpressure
  // in-band (ring depth 4 versus 12 pending).
  std::vector<FleetClient::Record> records;
  const auto polled = client.poll(1, 2, records);
  ASSERT_TRUE(polled);
  EXPECT_EQ(polled->returned, 2u);
  EXPECT_TRUE(polled->backpressure);

  // Draining the backlog clears the flag.
  while (true) {
    const auto p = client.poll(1, 8, records);
    ASSERT_TRUE(p);
    if (p->returned == 0 && !p->backpressure) break;
  }
  EXPECT_EQ(records.size(), 12u);
}

TEST(FleetServer, FaultPresetDegradesGracefully) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);

  // Severe link faults on a DNA session: transactions may exhaust their
  // retries, but every outcome is a typed record or status — never a
  // crash, and the session stays serviceable.
  auto spec = dna_spec(5);
  spec.fault_preset = 2;
  ASSERT_TRUE(client.create(spec));
  ASSERT_TRUE(client.start(5, 32));
  std::vector<FleetClient::Record> records;
  while (true) {
    const auto polled = client.poll(5, 8, records);
    ASSERT_TRUE(polled);
    if (polled->returned == 0) break;
  }
  EXPECT_EQ(records.size(), 32u);

  std::uint64_t error_records = 0;
  for (const auto& r : records) {
    if (r.payload >> 63) ++error_records;
  }
  const auto info = client.query(5);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->wire_errors, error_records);
  // The drain summary still arrives with link accounting.
  const auto drained = client.drain(5);
  ASSERT_TRUE(drained);
  EXPECT_EQ(drained->frames, 32u);
  EXPECT_GT(drained->retries, 0u);
  ASSERT_TRUE(client.destroy(5));
}

TEST(FleetServer, NeuroFaultPresetMasksSitesWithoutCrashing) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);
  auto spec = neuro_spec(2);
  spec.fault_preset = 3;  // defect preset: dead/railed pixels
  ASSERT_TRUE(client.create(spec));
  ASSERT_TRUE(client.start(2, 8));
  std::vector<FleetClient::Record> records;
  ASSERT_TRUE(client.poll(2, 64, records));
  EXPECT_EQ(records.size(), 8u);
  const auto drained = client.drain(2);
  ASSERT_TRUE(drained);
  EXPECT_EQ(drained->frames, 8u);
}

TEST(FleetServer, IdempotentRetryUnderLossyLink) {
  // Both runs execute the same mutating script; one over a heavily lossy
  // link (dropped requests, dropped responses, corrupted bytes). Retries
  // + the server-side replay cache must converge to the identical
  // outcome: same drain digest, same frame count.
  const auto run_script = [](ByteLink& link) {
    dnachip::RetryPolicy retry;
    retry.max_attempts = 64;  // the lossy leg needs headroom
    FleetClient client(link, retry);
    EXPECT_TRUE(client.create(neuro_spec(9)));
    EXPECT_TRUE(client.configure(9, 1, 300));
    std::vector<FleetClient::Record> records;
    for (int round = 0; round < 4; ++round) {
      EXPECT_TRUE(client.start(9, 4));
      while (true) {
        const auto polled = client.poll(9, 4, records);
        EXPECT_TRUE(polled);
        if (!polled || polled->returned == 0) break;
      }
    }
    const auto drained = client.drain(9);
    EXPECT_TRUE(drained);
    EXPECT_TRUE(client.destroy(9));
    struct Outcome {
      std::uint32_t frames;
      std::uint64_t digest;
      std::size_t records;
      std::uint64_t retries;
    };
    return Outcome{drained ? drained->frames : 0,
                   drained ? drained->digest : 0, records.size(),
                   0};
  };

  FleetServer clean_server;
  ServerLink clean_link(clean_server);
  const auto clean = run_script(clean_link);

  FleetServer lossy_server;
  ServerLink inner(lossy_server);
  LossyLink lossy(inner, Rng(404), 0.15, 0.15, 0.1);
  const auto stressed = run_script(lossy);

  EXPECT_GT(lossy.drops() + lossy.corruptions(), 0u);
  EXPECT_EQ(stressed.frames, clean.frames);
  EXPECT_EQ(stressed.digest, clean.digest);
  EXPECT_EQ(stressed.records, clean.records);
  // Idempotency held: the lossy run destroyed the session exactly once
  // and left the server empty.
  EXPECT_EQ(lossy_server.live_sessions(), 0u);
}

TEST(FleetServer, MixedFleetDeterministicAcrossWorkerThreads) {
  // The bench-scale determinism claim in miniature: 8 mixed sessions, the
  // same per-session scripts, run under 1, 2 and 4 external worker
  // threads with static partitioning — every session's response digest
  // must be bitwise identical.
  set_max_threads(1);  // captures stay inline on the calling worker
  const int kSessions = 8;
  const auto run_fleet = [&](int workers) {
    FleetServer server;
    ServerLink link(server);
    std::vector<std::map<std::uint32_t, std::uint64_t>> digests(
        static_cast<std::size_t>(workers));
    const auto worker_fn = [&](int w) {
      std::vector<FleetClient::Record> records;
      for (int s = w; s < kSessions; s += workers) {
        const auto id = static_cast<std::uint32_t>(s + 1);
        FleetClient client(link);
        const auto spec = (s % 2 == 0) ? neuro_spec(id) : dna_spec(id);
        EXPECT_TRUE(client.create(spec));
        EXPECT_TRUE(client.configure(id, s % 2 == 0 ? 1 : 0,
                                     s % 2 == 0 ? 150 : 6));
        EXPECT_TRUE(client.start(id, 6));
        records.clear();
        while (true) {
          const auto polled = client.poll(id, 3, records);
          EXPECT_TRUE(polled);
          if (!polled || polled->returned == 0) break;
        }
        EXPECT_TRUE(client.drain(id));
        EXPECT_TRUE(client.destroy(id));
        digests[static_cast<std::size_t>(w)][id] = client.response_digest();
      }
    };
    if (workers == 1) {
      worker_fn(0);
    } else {
      std::vector<std::thread> pool;
      for (int w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);
      for (auto& t : pool) t.join();
    }
    std::map<std::uint32_t, std::uint64_t> merged;
    for (const auto& d : digests) merged.insert(d.begin(), d.end());
    EXPECT_EQ(merged.size(), static_cast<std::size_t>(kSessions));
    return merged;
  };

  const auto one = run_fleet(1);
  const auto two = run_fleet(2);
  const auto four = run_fleet(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

// --- checkpoint / restore ---------------------------------------------------

/// Drives a session from wherever it stands to completion: polls until the
/// backlog and ring are empty, then drains. Production is a pure function
/// of the command sequence, so running this same helper after a restore
/// replays the exact post-checkpoint record stream.
FleetClient::DrainSummary finish_session(FleetClient& client,
                                         std::uint32_t id) {
  std::vector<FleetClient::Record> records;
  for (;;) {
    const auto polled = client.poll(id, 10, records);
    EXPECT_TRUE(polled);
    if (!polled || (polled->returned == 0 && !polled->backpressure)) break;
  }
  const auto drained = client.drain(id);
  EXPECT_TRUE(drained);
  return drained ? *drained : FleetClient::DrainSummary{};
}

TEST(FleetServer, CheckpointResumeMatchesUninterruptedRun) {
  // Legs: a neural session, a neural session over the severe-link preset
  // (its ChipSession's link stream rides the checkpoint), a DNA session.
  for (int leg = 0; leg < 3; ++leg) {
    const bool dna = leg == 2;
    FleetServer server;
    ServerLink link(server);
    FleetClient client(link);
    auto spec = dna ? dna_spec(4) : neuro_spec(4);
    if (leg == 1) spec.fault_preset = 2;

    ASSERT_TRUE(client.create(spec));
    ASSERT_TRUE(client.start(4, 40));
    std::vector<FleetClient::Record> head;
    ASSERT_TRUE(client.poll(4, 10, head));

    const auto info = client.checkpoint(4);
    ASSERT_TRUE(info) << host_status_name(info.error());
    EXPECT_GT(info->size, 0u);

    // Reference leg: run the checkpointed session to completion.
    const auto reference = finish_session(client, 4);
    EXPECT_EQ(reference.frames, 40u);
    ASSERT_TRUE(client.destroy(4));

    // Resume leg: rebuild from the checkpoint (server memory) and replay
    // the identical post-checkpoint command sequence.
    FleetClient replayer(link);
    const auto restored = replayer.restore(4);
    ASSERT_TRUE(restored) << host_status_name(restored.error());
    const auto resumed = finish_session(replayer, 4);
    EXPECT_EQ(resumed.frames, reference.frames);
    EXPECT_EQ(resumed.digest, reference.digest) << "leg " << leg;
    EXPECT_EQ(resumed.retries, reference.retries) << "leg " << leg;
    if (leg == 1) {
      EXPECT_GT(reference.retries, 0u);
    }
  }
}

TEST(FleetServer, DrainDigestsArePinned) {
  // One 8x8 neural session per fault preset, fixed seeds, 64 records each:
  // the drain digests and link accounting are pinned, so any change to the
  // capture -> wire -> record path that moves a single code shows here.
  struct Pinned {
    std::uint64_t digest;
    std::uint64_t lost_words;
    std::uint64_t retries;
  };
  const Pinned pinned[4] = {
      {0x9358099ad2b19ddfull, 0, 0},
      {0x1ef4c22d91e76e40ull, 0, 17},
      {0x3a4fd2f954137aa4ull, 0, 81},
      {0x62224e3c9781d37eull, 0, 18},
  };
  for (std::uint8_t preset = 0; preset < 4; ++preset) {
    FleetServer server;
    ServerLink link(server);
    FleetClient client(link);
    auto spec = neuro_spec(30 + preset);
    spec.seed = 0x5a17 + preset;
    spec.fault_preset = preset;
    ASSERT_TRUE(client.create(spec));
    ASSERT_TRUE(client.configure(spec.id, 1, 250));
    ASSERT_TRUE(client.start(spec.id, 64));
    const auto drained = finish_session(client, spec.id);
    EXPECT_EQ(drained.frames, 64u);
    std::printf("preset %u: digest 0x%016llx lost_words %llu retries %llu\n",
                static_cast<unsigned>(preset),
                static_cast<unsigned long long>(drained.digest),
                static_cast<unsigned long long>(drained.lost_words),
                static_cast<unsigned long long>(drained.retries));
    EXPECT_EQ(drained.digest, pinned[preset].digest) << int{preset};
    EXPECT_EQ(drained.lost_words, pinned[preset].lost_words) << int{preset};
    EXPECT_EQ(drained.retries, pinned[preset].retries) << int{preset};
  }
}

TEST(FleetServer, KilledWorkerRecoversOnFreshServerFromDisk) {
  const std::string dir = ::testing::TempDir() + "fleet_ckpt_recover";
  FleetLimits limits;
  limits.checkpoint_dir = dir;

  std::uint64_t reference_digest = 0;
  std::uint32_t reference_frames = 0;
  {
    FleetServer worker(limits);
    ServerLink link(worker);
    FleetClient client(link);
    ASSERT_TRUE(client.create(dna_spec(9)));
    ASSERT_TRUE(client.configure(9, 0, 5));
    ASSERT_TRUE(client.start(9, 24));
    std::vector<FleetClient::Record> head;
    ASSERT_TRUE(client.poll(9, 8, head));
    ASSERT_TRUE(client.checkpoint(9));
    // Reference: what the worker WOULD have produced uninterrupted.
    const auto reference = finish_session(client, 9);
    reference_digest = reference.digest;
    reference_frames = reference.frames;
  }  // worker dies here; only the checkpoint directory survives

  FleetServer replacement(limits);
  ServerLink link(replacement);
  FleetClient client(link);
  const auto restored = client.restore(9);
  ASSERT_TRUE(restored) << host_status_name(restored.error());
  EXPECT_EQ(replacement.live_sessions(), 1u);
  const auto resumed = finish_session(client, 9);
  EXPECT_EQ(resumed.frames, reference_frames);
  EXPECT_EQ(resumed.digest, reference_digest);
}

TEST(FleetServer, CorruptCheckpointFallsBackThenFaultsTyped) {
  const std::string dir = ::testing::TempDir() + "fleet_ckpt_corrupt";
  FleetLimits limits;
  limits.checkpoint_dir = dir;

  std::uint32_t first_frames = 0;
  {
    FleetServer worker(limits);
    ServerLink link(worker);
    FleetClient client(link);
    ASSERT_TRUE(client.create(neuro_spec(2)));
    ASSERT_TRUE(client.start(2, 16));
    std::vector<FleetClient::Record> records;
    ASSERT_TRUE(client.poll(2, 4, records));
    ASSERT_TRUE(client.checkpoint(2));
    const auto q1 = client.query(2);
    ASSERT_TRUE(q1);
    first_frames = q1->frames_produced;
    ASSERT_TRUE(client.poll(2, 4, records));
    ASSERT_TRUE(client.checkpoint(2));  // rotates the first to .prev
  }

  // Bit rot in the current slot: a fresh server falls back to the
  // previous good checkpoint — earlier progress, but typed-safe.
  const snapshot::CheckpointStore store(dir, "s2");
  auto current = snapshot::read_file(store.path());
  ASSERT_TRUE(current);
  (*current)[current->size() / 3] ^= 0x08;
  ASSERT_TRUE(snapshot::write_file_atomic(store.path(), *current));
  {
    FleetServer replacement(limits);
    ServerLink link(replacement);
    FleetClient client(link);
    const auto restored = client.restore(2);
    ASSERT_TRUE(restored) << host_status_name(restored.error());
    EXPECT_EQ(restored->frames_produced, first_frames);
  }

  // Both slots corrupt: restore answers kFault — typed, no crash, no
  // half-registered session.
  auto prev = snapshot::read_file(store.prev_path());
  ASSERT_TRUE(prev);
  (*prev)[prev->size() / 2] ^= 0x01;
  ASSERT_TRUE(snapshot::write_file_atomic(store.prev_path(), *prev));
  FleetServer replacement(limits);
  ServerLink link(replacement);
  FleetClient client(link);
  const auto restored = client.restore(2);
  ASSERT_FALSE(restored);
  EXPECT_EQ(restored.error(), HostStatus::kFault);
  EXPECT_EQ(replacement.live_sessions(), 0u);
}

TEST(FleetServer, NonFiniteSiteCurrentCheckpointFaultsTyped) {
  // A checkpoint whose CRCs hold but whose DNA chip state carries a
  // non-finite site input (or a sensor + leakage pair that overflows) is
  // corrupt: restore answers kFault rather than registering a session
  // whose next poll would hand the converter an infinite current.
  const std::string dir = ::testing::TempDir() + "fleet_ckpt_nonfinite";
  FleetLimits limits;
  limits.checkpoint_dir = dir;
  {
    FleetServer worker(limits);
    ServerLink link(worker);
    FleetClient client(link);
    ASSERT_TRUE(client.create(dna_spec(5)));
    ASSERT_TRUE(client.checkpoint(5));
  }
  const snapshot::CheckpointStore store(dir, "s5");
  const auto good = snapshot::read_file(store.path());
  ASSERT_TRUE(good);
  const auto view = snapshot::SnapshotView::parse(*good);
  ASSERT_TRUE(view);
  const std::uint16_t chip_section = snapshot::section_id::kChip;

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  // (sensor current, outlier leakage) written into site 0.
  for (const auto& [current, leakage] :
       std::vector<std::pair<double, double>>{
           {inf, 0.0}, {nan, 0.0}, {1e-9, inf}, {big, big}}) {
    // Re-encode the chip section through a scratch chip of the same shape,
    // so only site 0's inputs change and every CRC is recomputed.
    dnachip::DnaChipConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    dnachip::DnaChip chip(cfg, Rng(1));
    snapshot::SnapshotBuilder builder;
    for (const snapshot::SectionView& section : view->sections()) {
      std::vector<std::uint8_t> payload(section.payload,
                                        section.payload + section.size);
      if (section.id == chip_section) {
        snapshot::StateReader r(section.payload, section.size);
        chip.load_state(r);
        ASSERT_TRUE(r.exhausted());
        std::vector<double> currents(16, 1e-9);
        currents[0] = current;
        chip.apply_sensor_currents(currents);
        faults::SiteFaultSet set;
        set.rows = 4;
        set.cols = 4;
        set.type.assign(16, faults::SiteFaultType::kNone);
        set.value.assign(16, 0.0);
        set.type[0] = faults::SiteFaultType::kLeakageOutlier;
        set.value[0] = leakage;
        chip.inject_faults(set);
        payload.clear();
        snapshot::StateWriter w(payload);
        chip.save_state(w);
      }
      builder.add_section(section.id, section.version, payload);
    }
    ASSERT_TRUE(snapshot::write_file_atomic(store.path(), builder.finish()));

    FleetServer replacement(limits);
    ServerLink link(replacement);
    FleetClient client(link);
    const auto restored = client.restore(5);
    ASSERT_FALSE(restored) << current << " + " << leakage;
    EXPECT_EQ(restored.error(), HostStatus::kFault);
    EXPECT_EQ(replacement.live_sessions(), 0u);
  }
}

/// `bytes` rebuilt section by section, every CRC recomputed: `edit` may
/// change a section's id, version or payload, and drops the section by
/// returning false.
template <typename Edit>
std::vector<std::uint8_t> reencode(const std::vector<std::uint8_t>& bytes,
                                   Edit edit) {
  const auto view = snapshot::SnapshotView::parse(bytes);
  EXPECT_TRUE(view);
  snapshot::SnapshotBuilder builder;
  for (const snapshot::SectionView& section : view->sections()) {
    std::uint16_t id = section.id;
    std::uint16_t version = section.version;
    std::vector<std::uint8_t> payload(section.payload,
                                      section.payload + section.size);
    if (edit(id, version, payload)) builder.add_section(id, version, payload);
  }
  return builder.finish();
}

/// Overwrites `width` little-endian bytes of `payload` from `offset`.
void put_le(std::vector<std::uint8_t>& payload, std::size_t offset,
            std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    payload[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Creates `spec` on a worker checkpointing into `limits.checkpoint_dir`,
/// queues `frames`, checkpoints, and returns the bytes on disk.
std::vector<std::uint8_t> disk_checkpoint(const FleetLimits& limits,
                                          const FleetClient::SessionSpec& spec,
                                          std::uint32_t frames) {
  {
    FleetServer worker(limits);
    ServerLink link(worker);
    FleetClient client(link);
    EXPECT_TRUE(client.create(spec));
    EXPECT_TRUE(client.start(spec.id, frames));
    EXPECT_TRUE(client.checkpoint(spec.id));
  }
  const snapshot::CheckpointStore store(limits.checkpoint_dir,
                                        "s" + std::to_string(spec.id));
  const auto bytes = snapshot::read_file(store.path());
  EXPECT_TRUE(bytes);
  return bytes ? *bytes : std::vector<std::uint8_t>{};
}

/// Writes `bytes` as session `id`'s checkpoint and restores it on a fresh
/// server: the restore's status, with no session left registered on a
/// refusal.
HostStatus restore_from(const FleetLimits& limits, std::uint32_t id,
                        const std::vector<std::uint8_t>& bytes) {
  const snapshot::CheckpointStore store(limits.checkpoint_dir,
                                        "s" + std::to_string(id));
  EXPECT_TRUE(snapshot::write_file_atomic(store.path(), bytes));
  FleetServer replacement(limits);
  ServerLink link(replacement);
  FleetClient client(link);
  const auto restored = client.restore(id);
  EXPECT_EQ(replacement.live_sessions(), restored ? 1u : 0u);
  return restored ? HostStatus::kOk : restored.error();
}

TEST(FleetServer, ChipSectionVersionIsCheckedOnRestore) {
  // A neural chip section in the version-1 per-pixel layout, or a
  // version-2 counters section (which still carried the progress and
  // clock the core meta section now holds), is refused with kFault before
  // it is parsed; the current sections round-trip: the restored session
  // checkpoints its chip to the same bytes (the replay and flight sections
  // then carry the restore itself).
  namespace section_id = snapshot::section_id;
  FleetLimits limits;
  limits.checkpoint_dir = ::testing::TempDir() + "fleet_ckpt_version";
  const auto good = disk_checkpoint(limits, neuro_spec(6), 4);
  const auto view = snapshot::SnapshotView::parse(good);
  ASSERT_TRUE(view);
  ASSERT_NE(view->find(section_id::kCounters), nullptr);
  EXPECT_EQ(view->find(section_id::kCounters)->version, 3);
  ASSERT_NE(view->find(section_id::kChip), nullptr);
  EXPECT_EQ(view->find(section_id::kChip)->version, 2);
  ASSERT_NE(view->find(section_id::kDriver), nullptr);  // the ChipSession
  EXPECT_EQ(view->find(section_id::kDriver)->version, 1);

  const std::pair<std::uint16_t, std::uint16_t> stale_versions[] = {
      {section_id::kChip, 1}, {section_id::kCounters, 2}};
  for (const auto& stale : stale_versions) {
    const auto bytes =
        reencode(good, [&stale](std::uint16_t id, std::uint16_t& version,
                                std::vector<std::uint8_t>&) {
          if (id == stale.first) version = stale.second;
          return true;
        });
    EXPECT_EQ(restore_from(limits, 6, bytes), HostStatus::kFault)
        << "section " << stale.first;
  }

  const snapshot::CheckpointStore store(limits.checkpoint_dir, "s6");
  ASSERT_TRUE(snapshot::write_file_atomic(store.path(), good));
  {
    FleetServer replacement(limits);
    ServerLink link(replacement);
    FleetClient client(link);
    ASSERT_TRUE(client.restore(6));
    ASSERT_TRUE(client.checkpoint(6));
  }
  const auto again = snapshot::read_file(store.path());
  ASSERT_TRUE(again);
  const auto again_view = snapshot::SnapshotView::parse(*again);
  ASSERT_TRUE(again_view);
  const snapshot::SectionView* before = view->find(section_id::kChip);
  const snapshot::SectionView* after = again_view->find(section_id::kChip);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->version, 2);
  ASSERT_EQ(after->size, before->size);
  EXPECT_EQ(0, std::memcmp(after->payload, before->payload, before->size));
}

TEST(FleetServer, RestoreRefusesOutOfRangeCounters) {
  // A CRC-valid checkpoint whose counters hold what configure or start
  // would refuse is refused too: a DNA gate code above 15 (the chip masks
  // the code it receives, the host converts all of it), a probe amplitude
  // that is not finite or lies outside [0, 1 V], a backlog above
  // max_pending (kSessionLimit, restore's admission status).
  FleetLimits limits;
  limits.checkpoint_dir = ::testing::TempDir() + "fleet_ckpt_counters";
  const auto good = disk_checkpoint(limits, dna_spec(7), 4);
  // Counters section (version 3): pending u32 at 0, records_polled,
  // digest and wire_errors u64 at 4/12/20, gate_code u16 at 28,
  // stimulus_v f64 at 30.
  struct Field {
    std::size_t offset;
    std::size_t width;
  };
  const Field pending{0, 4};
  const Field gate{28, 2};
  const Field stimulus{30, 8};
  const auto with = [&good](Field field, std::uint64_t value) {
    return reencode(good, [&](std::uint16_t id, std::uint16_t&,
                              std::vector<std::uint8_t>& payload) {
      if (id == snapshot::section_id::kCounters) {
        put_le(payload, field.offset, value, field.width);
      }
      return true;
    });
  };
  const auto volts = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    Field field;
    std::uint64_t value;
    HostStatus status;
  } cases[] = {
      {"gate 0x0107", gate, 0x0107, HostStatus::kFault},
      {"gate 16", gate, 16, HostStatus::kFault},
      {"stimulus NaN", stimulus,
       volts(std::numeric_limits<double>::quiet_NaN()), HostStatus::kFault},
      {"stimulus inf", stimulus, volts(inf), HostStatus::kFault},
      {"stimulus -inf", stimulus, volts(-inf), HostStatus::kFault},
      {"stimulus -1 uV", stimulus, volts(-1e-6), HostStatus::kFault},
      {"stimulus 1.5 V", stimulus, volts(1.5), HostStatus::kFault},
      {"pending max + 1", pending, limits.max_pending + 1ull,
       HostStatus::kSessionLimit},
      {"pending 0xFFFFFFFF", pending, 0xFFFFFFFFull,
       HostStatus::kSessionLimit},
      // The edges configure and start accept still restore.
      {"gate 15", gate, 15, HostStatus::kOk},
      {"stimulus 1 V", stimulus, volts(1.0), HostStatus::kOk},
      {"pending max", pending, limits.max_pending, HostStatus::kOk},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(restore_from(limits, 7, with(c.field, c.value)), c.status)
        << c.name;
  }
}

TEST(FleetServer, RestoreRefusesParamsThatDisagreeWithMeta) {
  // The params section rebuilds the session; the core meta section's
  // fingerprint must then match its kind, rows and cols, or no state
  // loads.
  FleetLimits limits;
  limits.checkpoint_dir = ::testing::TempDir() + "fleet_ckpt_params";
  const auto good = disk_checkpoint(limits, neuro_spec(3), 4);
  ASSERT_EQ(restore_from(limits, 3, good), HostStatus::kOk);
  // Params section: id u32 at 0, kind u8 at 4, rows u16 at 5, cols u16
  // at 7; the session is an 8x8 neural chip.
  const struct {
    const char* name;
    std::size_t offset;
    std::size_t width;
    std::uint64_t value;
  } cases[] = {
      {"kind dna", 4, 1, 1},
      {"rows 16", 5, 2, 16},
      {"cols 9", 7, 2, 9},
  };
  for (const auto& c : cases) {
    const auto bytes =
        reencode(good, [&c](std::uint16_t id, std::uint16_t&,
                            std::vector<std::uint8_t>& payload) {
          if (id == snapshot::section_id::kParams) {
            put_le(payload, c.offset, c.value, c.width);
          }
          return true;
        });
    EXPECT_EQ(restore_from(limits, 3, bytes), HostStatus::kFault) << c.name;
  }
}

TEST(FleetServer, RestoreRefusesParentFleetLayout) {
  // Before the shared section registry a fleet checkpoint numbered its
  // sections params 1, counters 2, chip 3, driver 4, ring 5, replay 6 and
  // flight 7, with no core meta section. Such a file has no params at id
  // 5, so it is refused with kFault instead of being misread.
  namespace section_id = snapshot::section_id;
  FleetLimits limits;
  limits.flight_events = 64;  // so the flight section is written too
  limits.checkpoint_dir = ::testing::TempDir() + "fleet_ckpt_parent";
  const auto good = disk_checkpoint(limits, neuro_spec(5), 4);
  const std::map<std::uint16_t, std::uint16_t> parent_id = {
      {section_id::kParams, 1}, {section_id::kCounters, 2},
      {section_id::kChip, 3},   {section_id::kDriver, 4},
      {section_id::kRing, 5},   {section_id::kReplay, 6},
      {section_id::kFlight, 7},
  };
  ASSERT_NE(snapshot::SnapshotView::parse(good)->find(section_id::kFlight),
            nullptr);
  ASSERT_EQ(restore_from(limits, 5, good), HostStatus::kOk);
  const auto parent = reencode(
      good, [&parent_id](std::uint16_t& id, std::uint16_t&,
                         std::vector<std::uint8_t>&) {
        const auto it = parent_id.find(id);
        if (it == parent_id.end()) return false;  // the core meta
        id = it->second;
        return true;
      });
  EXPECT_EQ(restore_from(limits, 5, parent), HostStatus::kFault);
}

TEST(FleetServer, RestoreGuards) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(neuro_spec(1)));
  ASSERT_TRUE(client.start(1, 4));
  ASSERT_TRUE(client.checkpoint(1));

  // Restoring over a live session is a typed state error.
  const auto live = client.restore(1);
  ASSERT_FALSE(live);
  EXPECT_EQ(live.error(), HostStatus::kBadState);

  // A checkpoint that never happened is kNoSuchSession.
  const auto absent = client.restore(42);
  ASSERT_FALSE(absent);
  EXPECT_EQ(absent.error(), HostStatus::kNoSuchSession);
}

TEST(FleetServer, PerSessionInstrumentsAreCollisionFree) {
  // With an obs prefix configured, two servers' sessions (and repeated
  // same-id sessions) never alias instruments: claim_prefix suffixes them.
  FleetLimits limits;
  limits.obs_prefix = "fleettest";
  FleetServer server(limits);
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(neuro_spec(1)));
  ASSERT_TRUE(client.destroy(1));
  // Re-creating the same id claims a fresh prefix rather than clobbering
  // the destroyed session's instruments.
  ASSERT_TRUE(client.create(neuro_spec(1)));
  ASSERT_TRUE(client.destroy(1));
  const auto json = obs::snapshot_to_json(obs::Registry::global().snapshot());
  EXPECT_NE(json.find("fleettest.s1.ring.depth"), std::string::npos);
  EXPECT_NE(json.find("fleettest.s1.ring#2.depth"), std::string::npos);
}

// --- telemetry --------------------------------------------------------------

FleetLimits telemetry_limits() {
  FleetLimits limits;
  limits.flight_events = 64;
  limits.server_flight_events = 256;
  return limits;
}

TEST(FleetTelemetry, SessionHealthSummary) {
  FleetServer server(telemetry_limits());
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(neuro_spec(5)));
  ASSERT_TRUE(client.start(5, 8));
  std::vector<FleetClient::Record> records;
  ASSERT_TRUE(client.poll(5, 8, records));

  const auto health = client.session_health(5);
  ASSERT_TRUE(health) << host_status_name(health.error());
  EXPECT_EQ(health->kind, core::ChipKind::kNeuro);
  EXPECT_EQ(health->frames_produced, 8u);
  EXPECT_EQ(health->pending, 0u);
  EXPECT_EQ(health->records_polled, 8u);
  EXPECT_EQ(health->ring_capacity, 32u);
  EXPECT_EQ(health->pool_frames, 4u);
  // create + start + poll ran through the outcome hook before this health
  // request was answered.
  EXPECT_EQ(health->commands_handled, 3u);
  EXPECT_EQ(health->last_command, HostCommand::kPollFrames);
  EXPECT_EQ(health->last_status, HostStatus::kOk);
  // The session_created event is in the ring; nothing was dropped.
  EXPECT_GE(health->flight_recorded, 1u);
  EXPECT_EQ(health->flight_dropped, 0u);

  // A rejected command shows up in the outcome tracking.
  const auto bad = client.start(5, 0);
  EXPECT_FALSE(bad);
  const auto after = client.session_health(5);
  ASSERT_TRUE(after);
  EXPECT_EQ(after->last_command, HostCommand::kStartAcquisition);
  EXPECT_EQ(after->last_status, HostStatus::kBadPayload);
}

TEST(FleetTelemetry, MetricsExportDecodesRemoteRegistry) {
  FleetServer server;
  ServerLink link(server);
  FleetClient client(link);
  // Plant a recognizable instrument; the export must carry it back
  // bitwise-faithfully through the chunked wire encoding.
  obs::Registry::global().counter("fleettest.wire.export").add(987654321);
  obs::Registry::global().gauge("fleettest.wire.level").set(-2.5);

  const auto snap = client.metrics();
  ASSERT_TRUE(snap) << host_status_name(snap.error());
  // Serving the command may itself move host-side counters, so the check
  // is on the planted instruments, not whole-registry equality (the codec
  // round trip is covered exhaustively in test_obs_wire).
  bool found_counter = false;
  for (const auto& [name, value] : snap->counters) {
    if (name == "fleettest.wire.export") {
      EXPECT_EQ(value, 987654321u);
      found_counter = true;
    }
  }
  EXPECT_TRUE(found_counter);
  bool found_gauge = false;
  for (const auto& [name, value] : snap->gauges) {
    if (name == "fleettest.wire.level") {
      EXPECT_EQ(value, -2.5);
      found_gauge = true;
    }
  }
  EXPECT_TRUE(found_gauge);
}

TEST(FleetTelemetry, MetricsChunkingSurvivesTinyFrames) {
  // Force many round trips by requesting one-byte chunks directly at the
  // wire level; the client helper always asks for full frames, so drive
  // the command by hand and reassemble.
  FleetServer server;
  ServerLink link(server);
  obs::Registry::global().counter("fleettest.wire.chunky").add(7);

  std::vector<std::uint8_t> wire, response, reassembled;
  std::uint32_t offset = 0;
  std::uint16_t seq = 100;
  for (;;) {
    std::vector<std::uint8_t> payload(6);
    for (int i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::uint8_t>(offset >> (8 * i));
    }
    payload[4] = 1;  // max one byte per response
    payload[5] = 0;
    FrameHeader h;
    h.command = HostCommand::kGetMetrics;
    h.seq = seq++;
    encode_frame(h, payload.data(), payload.size(), wire);
    ASSERT_EQ(server.handle(wire.data(), wire.size(), response),
              HostStatus::kOk);
    const auto frame = decode_frame(response.data(), response.size());
    ASSERT_TRUE(frame.has_value());
    snapshot::StateReader r(frame->payload, frame->payload_len);
    const std::uint32_t total = r.u32();
    ASSERT_EQ(r.u32(), offset);
    ASSERT_LE(r.remaining(), 1u);
    if (r.remaining() == 1) reassembled.push_back(r.u8());
    offset += 1;
    if (offset >= total) break;
  }
  const auto decoded =
      obs::decode_snapshot(reassembled.data(), reassembled.size());
  ASSERT_TRUE(decoded) << obs::wire_error_name(decoded.error());
  bool found = false;
  for (const auto& [name, value] : decoded->counters) {
    if (name == "fleettest.wire.chunky") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FleetTelemetry, FlightDumpWritesArtifactUnderResultsDir) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "fleet_flight_dump";
  fs::remove_all(dir);
  ASSERT_EQ(setenv("BIOSENSE_RESULTS_DIR", dir.c_str(), 1), 0);

  FleetServer server(telemetry_limits());
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(dna_spec(6)));
  ASSERT_TRUE(client.start(6, 4));

  const auto dump = client.dump_flight_recorder(6);
  ASSERT_TRUE(dump) << host_status_name(dump.error());
  EXPECT_GE(dump->events, 1u);
  EXPECT_GE(dump->recorded, dump->events);
  EXPECT_EQ(dump->dropped, 0u);
  EXPECT_NE(dump->path.find("fleet.s6.flight.json"), std::string::npos);
  std::ifstream in(dump->path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("fleet.session_created"), std::string::npos);

  // The server-wide ring dumps through the reserved scope id.
  const auto server_dump = client.dump_flight_recorder(kServerFlightScope);
  ASSERT_TRUE(server_dump) << host_status_name(server_dump.error());
  EXPECT_NE(server_dump->path.find("fleet.server.flight.json"),
            std::string::npos);

  // The session dump is noted like any session command: create, start and
  // dump; the server-scope dump addresses no session.
  const auto health = client.session_health(6);
  ASSERT_TRUE(health) << host_status_name(health.error());
  EXPECT_EQ(health->commands_handled, 3u);
  EXPECT_EQ(health->last_command, HostCommand::kDumpFlightRecorder);
  EXPECT_EQ(health->last_status, HostStatus::kOk);

  unsetenv("BIOSENSE_RESULTS_DIR");
  fs::remove_all(dir);
}

TEST(FleetTelemetry, TelemetryOffAnswersTypedBadState) {
  FleetServer server;  // flight_events == 0: no rings anywhere
  ServerLink link(server);
  FleetClient client(link);
  ASSERT_TRUE(client.create(neuro_spec(2)));
  const auto dump = client.dump_flight_recorder(2);
  ASSERT_FALSE(dump);
  EXPECT_EQ(dump.error(), HostStatus::kBadState);
  const auto server_dump = client.dump_flight_recorder(kServerFlightScope);
  ASSERT_FALSE(server_dump);
  EXPECT_EQ(server_dump.error(), HostStatus::kBadState);
  // Health still answers (the summary is always maintained structurally);
  // outcome counters just stay zero without the telemetry hook.
  const auto health = client.session_health(2);
  ASSERT_TRUE(health);
  EXPECT_EQ(health->commands_handled, 0u);
  EXPECT_EQ(health->flight_recorded, 0u);
}

TEST(FleetTelemetry, ServerFlightScopeRefusedAtCreate) {
  FleetServer server(telemetry_limits());
  ServerLink link(server);
  FleetClient client(link);
  const auto refused = client.create(neuro_spec(kServerFlightScope));
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.error(), HostStatus::kBadPayload);
}

TEST(FleetTelemetry, RestoredSessionKeepsFlightHistory) {
  const std::string dir = ::testing::TempDir() + "fleet_flight_restore";
  FleetLimits limits = telemetry_limits();
  limits.checkpoint_dir = dir;

  std::uint64_t recorded_at_checkpoint = 0;
  {
    FleetServer worker(limits);
    ServerLink link(worker);
    FleetClient client(link);
    ASSERT_TRUE(client.create(dna_spec(8)));
    ASSERT_TRUE(client.start(8, 12));
    std::vector<FleetClient::Record> head;
    ASSERT_TRUE(client.poll(8, 4, head));
    ASSERT_TRUE(client.checkpoint(8));
    const auto health = client.session_health(8);
    ASSERT_TRUE(health);
    recorded_at_checkpoint = health->flight_recorded;
    EXPECT_GE(recorded_at_checkpoint, 2u);  // created + checkpoint mark
  }  // worker killed mid-run; the checkpoint directory survives

  namespace fs = std::filesystem;
  const fs::path results = fs::path(::testing::TempDir()) / "fleet_flight_hr";
  fs::remove_all(results);
  ASSERT_EQ(setenv("BIOSENSE_RESULTS_DIR", results.c_str(), 1), 0);

  FleetServer replacement(limits);
  ServerLink link(replacement);
  FleetClient client(link);
  ASSERT_TRUE(client.restore(8));
  const auto health = client.session_health(8);
  ASSERT_TRUE(health);
  // Everything recorded before the kill is still accounted for, plus the
  // restore mark recorded on this server.
  EXPECT_GE(health->flight_recorded, recorded_at_checkpoint + 1);

  const auto dump = client.dump_flight_recorder(8);
  ASSERT_TRUE(dump) << host_status_name(dump.error());
  std::ifstream in(dump->path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  // The dead worker's events crossed the checkpoint boundary...
  EXPECT_NE(trace.find("fleet.session_created"), std::string::npos);
  EXPECT_NE(trace.find("fleet.checkpoint_mark"), std::string::npos);
  // ...and this server's restore mark sits after them.
  EXPECT_NE(trace.find("fleet.restore_mark"), std::string::npos);

  unsetenv("BIOSENSE_RESULTS_DIR");
  fs::remove_all(results);
}

TEST(FleetTelemetry, TelemetryDoesNotPerturbSessionDigests) {
  // The determinism contract with telemetry enabled: a session's drain
  // digest is bitwise-identical with rings on and off, and health/dump
  // traffic in between does not perturb it.
  auto run = [](bool telemetry, bool chatter) {
    FleetServer server(telemetry ? telemetry_limits() : FleetLimits{});
    ServerLink link(server);
    FleetClient client(link);
    EXPECT_TRUE(client.create(dna_spec(11)));
    EXPECT_TRUE(client.start(11, 16));
    std::vector<FleetClient::Record> records;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(client.poll(11, 4, records));
      if (telemetry && chatter) {
        EXPECT_TRUE(client.session_health(11));
      }
    }
    const auto drained = client.drain(11);
    EXPECT_TRUE(drained);
    return drained ? drained->digest : 0;
  };
  const auto off = run(false, false);
  EXPECT_EQ(run(true, false), off);
  EXPECT_EQ(run(true, true), off);
}

}  // namespace
}  // namespace biosense::host
