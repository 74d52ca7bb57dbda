#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dnachip/chip.hpp"
#include "dnachip/serial.hpp"
#include "neurochip/array.hpp"

namespace biosense {
namespace {

// Restores the global pool size after each test so suites stay independent.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = max_threads(); }
  void TearDown() override { set_max_threads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    set_max_threads(threads);
    for (std::int64_t n : {0LL, 1LL, 7LL, 1000LL}) {
      for (std::int64_t grain : {1LL, 16LL, 128LL}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        parallel_for(
            0, n,
            [&](std::int64_t i) {
              hits[static_cast<std::size_t>(i)].fetch_add(1);
            },
            grain);
        for (std::int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST_F(ParallelTest, HonorsBeginOffset) {
  set_max_threads(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(10, 20, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST_F(ParallelTest, PropagatesBodyException) {
  set_max_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST_F(ParallelTest, NestedCallsRunSerially) {
  set_max_threads(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, 8, [&](std::int64_t) {
    parallel_for(0, 16, [&](std::int64_t) { sum.fetch_add(1); });
  });
  EXPECT_EQ(sum.load(), 8 * 16);
}

TEST_F(ParallelTest, SetMaxThreadsClampsToOne) {
  set_max_threads(0);
  EXPECT_EQ(max_threads(), 1);
  set_max_threads(3);
  EXPECT_EQ(max_threads(), 3);
  EXPECT_EQ(ThreadPool::global().size(), 3);
}

// --- determinism of the capture engine ------------------------------------

neurochip::NeuroChipConfig noisy_chip(int n = 16) {
  neurochip::NeuroChipConfig c;
  c.rows = n;
  c.cols = n;
  // Keep the default pixel noise ON: it exercises the per-pixel forked RNG
  // streams, the part that would break first under a bad parallelization.
  return c;
}

class SineSource final : public neurochip::SignalSource {
 public:
  double eval(int row, int col, double t) const override {
    return 1e-3 * std::sin(2000.0 * t + 0.1 * row + 0.2 * col);
  }
};

std::vector<neurochip::NeuroFrame> capture_with_threads(int threads,
                                                        int n_frames) {
  set_max_threads(threads);
  neurochip::NeuroChip chip(noisy_chip(), Rng(1234));
  chip.calibrate_all();
  SineSource source;
  return chip.record(source, 0.0, n_frames);
}

void expect_bitwise_equal(const std::vector<neurochip::NeuroFrame>& a,
                          const std::vector<neurochip::NeuroFrame>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].v_in.size(), b[k].v_in.size());
    EXPECT_EQ(a[k].t, b[k].t);
    for (std::size_t i = 0; i < a[k].v_in.size(); ++i) {
      // Bitwise, not approximate: memcmp-style equality of the doubles.
      EXPECT_EQ(a[k].v_in[i], b[k].v_in[i]) << "frame " << k << " idx " << i;
      EXPECT_EQ(a[k].codes[i], b[k].codes[i]) << "frame " << k << " idx " << i;
    }
  }
}

TEST_F(ParallelTest, NeuroFramesBitwiseIdenticalAcrossThreadCounts) {
  const auto f1 = capture_with_threads(1, 4);
  const auto f2 = capture_with_threads(2, 4);
  const auto f8 = capture_with_threads(8, 4);
  expect_bitwise_equal(f1, f2);
  expect_bitwise_equal(f1, f8);
}

TEST_F(ParallelTest, DnaChipCountsIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    set_max_threads(threads);
    dnachip::DnaChip chip(dnachip::DnaChipConfig{}, Rng(99));
    std::vector<double> currents(static_cast<std::size_t>(chip.sites()));
    for (std::size_t i = 0; i < currents.size(); ++i) {
      currents[i] = 1e-12 * static_cast<double>(1 + i % 50);
    }
    chip.apply_sensor_currents(currents);
    chip.process(dnachip::encode_command(
        {dnachip::Opcode::kStartConversion, 5}));
    return chip.last_counts();
  };
  const auto c1 = run(1);
  const auto c4 = run(4);
  ASSERT_EQ(c1.size(), c4.size());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c4[i]);
}

}  // namespace
}  // namespace biosense
