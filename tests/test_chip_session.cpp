// Streaming acquisition pipeline: the staged ChipSession must be bitwise
// identical to the batch capture path when the link is lossless, bitwise
// identical to itself for any thread count and any admissible pool size,
// and robust (still deterministic) when the host link misbehaves.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/chip_session.hpp"
#include "neurochip/array.hpp"

namespace biosense {
namespace {

constexpr std::uint64_t kChipSeed = 20260807;

neurochip::NeuroChipConfig small_chip_config() {
  neurochip::NeuroChipConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  return cfg;
}

/// A 1 mV travelling sine, evaluated pixel by pixel.
class TestField final : public neurochip::SignalSource {
 public:
  double eval(int r, int c, double t) const override {
    return 1e-3 * std::sin(6283.0 * t + 0.13 * c + 0.07 * r);
  }
};

std::uint64_t hash_frames(const std::vector<neurochip::NeuroFrame>& frames) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& f : frames) {
    h = fnv1a(h, &f.t, sizeof(f.t));
    h = fnv1a(h, &f.masked, sizeof(f.masked));
    h = fnv1a(h, f.v_in.data(), f.v_in.size() * sizeof(double));
    h = fnv1a(h, f.codes.data(), f.codes.size() * sizeof(std::int32_t));
  }
  return h;
}

/// A freshly built, calibrated chip — capture mutates chip state, so every
/// comparison leg needs its own twin.
neurochip::NeuroChip make_chip() {
  neurochip::NeuroChip chip(small_chip_config(), Rng(kChipSeed));
  chip.calibrate_all();
  return chip;
}

std::uint64_t session_hash(int threads, core::SessionConfig cfg, int n_frames,
                           std::uint64_t session_seed = 42) {
  set_max_threads(threads);
  auto chip = make_chip();
  core::ChipSession session(chip, cfg, Rng(session_seed));
  const auto frames = session.record(TestField(), 0.0, n_frames);
  return hash_frames(frames);
}

TEST(ChipSession, LosslessStreamingMatchesBatchBitwise) {
  set_max_threads(4);
  auto batch_chip = make_chip();
  const auto batch = batch_chip.record(TestField(), 0.0, 8);

  auto stream_chip = make_chip();
  core::ChipSession session(stream_chip, {}, Rng(42));
  const auto streamed = session.record(TestField(), 0.0, 8);

  ASSERT_EQ(streamed.size(), batch.size());
  EXPECT_EQ(hash_frames(streamed), hash_frames(batch));
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(streamed[k].v_in, batch[k].v_in);
    EXPECT_EQ(streamed[k].codes, batch[k].codes);
    EXPECT_EQ(streamed[k].t, batch[k].t);
  }
}

TEST(ChipSession, BitwiseIdenticalAcrossThreadCounts) {
  const std::uint64_t h1 = session_hash(1, {}, 8);
  const std::uint64_t h2 = session_hash(2, {}, 8);
  const std::uint64_t h8 = session_hash(8, {}, 8);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
  set_max_threads(1);
}

TEST(ChipSession, BitwiseIdenticalAcrossPoolAndQueueSizes) {
  core::SessionConfig small;
  small.pool_frames = 1;
  small.queue_depth = 1;
  core::SessionConfig large;
  large.pool_frames = 16;
  large.queue_depth = 8;
  const std::uint64_t h_small = session_hash(8, small, 8);
  const std::uint64_t h_large = session_hash(8, large, 8);
  const std::uint64_t h_default = session_hash(8, {}, 8);
  EXPECT_EQ(h_small, h_large);
  EXPECT_EQ(h_small, h_default);
  set_max_threads(1);
}

TEST(ChipSession, SinkSeesFramesInCaptureOrder) {
  set_max_threads(8);
  auto chip = make_chip();
  core::SessionConfig cfg;
  cfg.pool_frames = 4;
  core::ChipSession session(chip, cfg, Rng(42));
  std::vector<double> times;
  int ends = 0;
  struct EndSink final : StreamSink<neurochip::NeuroFrame> {
    std::vector<double>* times;
    int* ends;
    void on_item(const neurochip::NeuroFrame& f) override {
      times->push_back(f.t);
    }
    void on_end() override { ++*ends; }
  } end_sink;
  end_sink.times = &times;
  end_sink.ends = &ends;
  const auto report = session.run(TestField(), 0.0, 12, end_sink);
  set_max_threads(1);
  ASSERT_EQ(times.size(), 12u);
  for (std::size_t k = 1; k < times.size(); ++k) {
    EXPECT_GT(times[k], times[k - 1]);  // strictly increasing frame times
  }
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(report.frames, 12);
  EXPECT_EQ(report.wire.frames, 12u);
  EXPECT_LE(report.pool.allocations,
            static_cast<std::uint64_t>(cfg.pool_frames));
}

TEST(ChipSession, ReportAccountsWireTraffic) {
  set_max_threads(1);
  auto chip = make_chip();
  core::ChipSession session(chip, {}, Rng(42));
  CollectSink<neurochip::NeuroFrame> sink;
  const auto report = session.run(TestField(), 0.0, 4, sink);
  EXPECT_EQ(report.stage_threads, 1);  // serial fallback on one thread
  EXPECT_EQ(report.wire.frames, 4u);
  // 8 header words + 2 per pixel, per frame, all in one attempt.
  const std::uint64_t words_per_frame = 8 + 2 * 16 * 16;
  EXPECT_EQ(report.wire.words, 4 * words_per_frame);
  EXPECT_EQ(report.wire.attempts, 4u);
  EXPECT_EQ(report.wire.retries, 0u);
  EXPECT_EQ(report.wire.lost_words, 0u);
  EXPECT_EQ(report.wire.bits, 4 * words_per_frame * 24);
}

TEST(ChipSession, NoisyLinkRecoversAndStaysDeterministic) {
  core::SessionConfig noisy;
  noisy.bit_error_rate = 2e-4;  // a few corrupt words per frame
  const std::uint64_t h1 = session_hash(1, noisy, 6);
  const std::uint64_t h8 = session_hash(8, noisy, 6);
  EXPECT_EQ(h1, h8);

  set_max_threads(1);
  auto chip = make_chip();
  core::ChipSession session(chip, noisy, Rng(42));
  CollectSink<neurochip::NeuroFrame> sink;
  const auto report = session.run(TestField(), 0.0, 6, sink);
  EXPECT_GT(report.wire.retries, 0u);             // the BER actually bit
  EXPECT_GT(report.wire.recovered_words, 0u);     // and merging recovered
  EXPECT_EQ(report.wire.lost_words, 0u);          // everything, eventually
}

TEST(ChipSession, NoisyLinkMatchesBatchOncePerfectlyRecovered) {
  // With retries recovering every word, the decoded stream must equal the
  // lossless batch capture bitwise — the robust-readout invariant carried
  // over to the streaming path.
  set_max_threads(2);
  auto batch_chip = make_chip();
  const auto batch = batch_chip.record(TestField(), 0.0, 6);

  core::SessionConfig noisy;
  noisy.bit_error_rate = 2e-4;
  auto chip = make_chip();
  core::ChipSession session(chip, noisy, Rng(42));
  CollectSink<neurochip::NeuroFrame> sink;
  const auto report = session.run(TestField(), 0.0, 6, sink);
  set_max_threads(1);
  ASSERT_EQ(report.wire.lost_words, 0u);
  EXPECT_EQ(hash_frames(sink.items()), hash_frames(batch));
}

TEST(ChipSession, SinkExceptionUnwindsAndSessionStaysUsable) {
  set_max_threads(8);
  auto chip = make_chip();
  core::ChipSession session(chip, {}, Rng(42));
  struct BoomSink final : StreamSink<neurochip::NeuroFrame> {
    int seen = 0;
    bool ended = false;
    void on_item(const neurochip::NeuroFrame&) override {
      if (++seen == 3) throw std::runtime_error("boom");
    }
    void on_end() override { ended = true; }
  } boom;
  EXPECT_THROW(session.run(TestField(), 0.0, 10, boom), std::runtime_error);
  EXPECT_FALSE(boom.ended);

  // The pool reopened; the next run on the same session completes.
  CollectSink<neurochip::NeuroFrame> sink;
  const auto report = session.run(TestField(), 0.0, 3, sink);
  set_max_threads(1);
  EXPECT_EQ(report.frames, 3);
  EXPECT_EQ(sink.items().size(), 3u);
}

TEST(ChipSession, FirstStagedRunCreatesTheWholePool) {
  // How many frames a staged run leaves behind must not depend on how far
  // capture ran ahead. A slow source keeps one or two frames in flight; a
  // slow sink then lets capture fill the pool. Frames created in that
  // second run would be heap allocations inside what a resumed session
  // relies on being an allocation-free steady state.
  class SlowSource final : public neurochip::SignalSource {
   public:
    double eval(int r, int c, double t) const override {
      return field_.eval(r, c, t);
    }
    void eval_column(int col, double t, std::span<double> out) const override {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      for (std::size_t r = 0; r < out.size(); ++r) {
        out[r] = field_.eval(static_cast<int>(r), col, t);
      }
    }

   private:
    TestField field_;
  };
  struct SlowSink final : StreamSink<neurochip::NeuroFrame> {
    void on_item(const neurochip::NeuroFrame&) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    void on_end() override {}
  };

  for (const int threads : {2, 4, 8}) {
    set_max_threads(threads);
    auto chip = make_chip();
    core::ChipSession session(chip, {}, Rng(42));
    CollectSink<neurochip::NeuroFrame> fast;
    const auto first = session.run(SlowSource(), 0.0, 8, fast);
    SlowSink slow;
    const auto second = session.run(TestField(), 0.0, 8, slow);
    EXPECT_EQ(first.pool.allocations, session.config().pool_frames)
        << "threads=" << threads;
    EXPECT_EQ(second.pool.allocations, first.pool.allocations)
        << "threads=" << threads;
  }
  set_max_threads(1);
}

TEST(ChipSession, RunsInsideParallelJobFallBackSerially) {
  set_max_threads(4);
  // A session driven from inside a parallel_for body must not deadlock —
  // it detects the nesting and runs its stages stepwise.
  std::vector<std::uint64_t> hashes(2);
  parallel_for(0, 2, [&hashes](std::int64_t i) {
    auto chip = make_chip();
    core::ChipSession session(chip, {}, Rng(42));
    const auto frames = session.record(TestField(), 0.0, 3);
    hashes[static_cast<std::size_t>(i)] = hash_frames(frames);
  });
  set_max_threads(1);
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], session_hash(1, {}, 3));
  set_max_threads(1);
}

}  // namespace
}  // namespace biosense
