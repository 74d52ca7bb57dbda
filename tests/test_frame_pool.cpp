// Frame pool: lazy and eager warm-up, recycling, exhaustion backpressure,
// shutdown while blocked, and handle lifetime (run under ASan/TSan in the
// ci.sh matrix — handle misuse shows up there).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/frame_pool.hpp"

namespace biosense {
namespace {

TEST(FramePool, LazyAllocationUpToCapacity) {
  FramePool<std::vector<double>> pool(3);
  EXPECT_EQ(pool.available(), 3u);
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.available(), 1u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.allocations, 2u);  // both were cold starts
  EXPECT_EQ(stats.hits, 0u);
}

TEST(FramePool, RecyclingIsAllocationFree) {
  FramePool<std::vector<double>> pool(2);
  {
    auto h = pool.acquire();
    h->assign(64, 1.0);  // grow the buffer while held
  }
  for (int i = 0; i < 100; ++i) {
    auto h = pool.acquire();
    ASSERT_TRUE(h);
    // The recycled object kept its storage: capacity survives the trip
    // through the free list.
    EXPECT_GE(h->capacity(), 64u);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.allocations, 1u);  // only the first acquire created one
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.exhaustion_stalls, 0u);
}

TEST(FramePool, MaterializeCreatesAndShapesTheRest) {
  FramePool<std::vector<double>> pool(3);
  { auto warm = pool.acquire(); }  // one object already exists
  int shaped = 0;
  const auto shape = [&shaped](std::vector<double>& v) {
    v.assign(64, 0.0);
    ++shaped;
  };
  pool.materialize(shape);
  EXPECT_EQ(shaped, 2);  // only the two not yet created
  EXPECT_EQ(pool.stats().allocations, 3u);
  pool.materialize(shape);  // a full pool is left alone
  EXPECT_EQ(shaped, 2);

  std::vector<FramePool<std::vector<double>>::Handle> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.allocations, 3u);
  EXPECT_EQ(stats.hits, 3u);  // every handout came off the free list
  int sized = 0;
  for (const auto& h : held) sized += h->size() == 64u ? 1 : 0;
  EXPECT_EQ(sized, 2);  // the lazily created one was never shaped
}

TEST(FramePool, TryAcquireFailsWhenExhausted) {
  FramePool<int> pool(2);
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.try_acquire();
  EXPECT_FALSE(c);
  b.release();
  auto d = pool.try_acquire();
  EXPECT_TRUE(d);
}

TEST(FramePool, ExhaustedAcquireBlocksUntilRelease) {
  FramePool<int> pool(1);
  auto held = pool.acquire();
  ASSERT_TRUE(held);
  std::thread acquirer([&pool] {
    auto h = pool.acquire();  // blocks until the main thread releases
    EXPECT_TRUE(h);
    EXPECT_GE(pool.stats().exhaustion_stalls, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  held.release();
  acquirer.join();
}

TEST(FramePool, CloseHandsEmptyHandlesToBlockedAcquirers) {
  FramePool<int> pool(1);
  auto held = pool.acquire();
  std::thread acquirer([&pool] {
    auto h = pool.acquire();  // blocked on exhaustion, woken by close
    EXPECT_FALSE(h);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pool.close();
  acquirer.join();
  // Releasing after close still recycles quietly.
  held.release();
  EXPECT_FALSE(pool.acquire());
}

TEST(FramePool, ResetReopensAndKeepsWarmBuffers) {
  FramePool<std::vector<double>> pool(2);
  {
    auto h = pool.acquire();
    h->assign(32, 0.0);
  }
  pool.close();
  EXPECT_FALSE(pool.acquire());
  pool.reset();
  auto h = pool.acquire();
  ASSERT_TRUE(h);
  EXPECT_GE(h->capacity(), 32u);              // warm buffer survived
  EXPECT_EQ(pool.stats().allocations, 1u);    // no re-warm-up
}

TEST(FramePool, ResetWithHandlesInFlightThrows) {
  FramePool<int> pool(1);
  auto h = pool.acquire();
  pool.close();
  EXPECT_THROW(pool.reset(), ConfigError);
}

TEST(FramePool, HandleMoveTransfersOwnership) {
  FramePool<int> pool(1);
  auto a = pool.acquire();
  *a = 42;
  auto b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, 42);
  auto c = pool.try_acquire();
  EXPECT_FALSE(c);  // still exhausted: the move kept one handle live
  b.release();
  EXPECT_TRUE(pool.try_acquire());
}

TEST(FramePool, ConcurrentAcquireReleaseDeliversDistinctBuffers) {
  FramePool<int> pool(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 500; ++i) {
        auto h = pool.acquire();
        ASSERT_TRUE(h);
        *h += 1;  // distinct buffers: no torn writes under TSan
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2000u);
  EXPECT_LE(stats.allocations, 4u);  // never more objects than capacity
}

}  // namespace
}  // namespace biosense
