#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs_json.hpp"

namespace biosense::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundariesAreLeInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  // A value exactly on a bound belongs to that bound's bucket (`le`).
  h.observe(1.0);
  h.observe(10.0);
  h.observe(100.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 0u);  // overflow untouched
  // Just above a bound spills into the next bucket.
  h.observe(1.0000001);
  EXPECT_EQ(h.bucket_count(1), 2u);
  // Above the last bound lands in overflow.
  h.observe(100.5);
  EXPECT_EQ(h.bucket_count(3), 1u);
  // Below the first bound lands in bucket 0 (including negatives).
  h.observe(0.5);
  h.observe(-7.0);
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.total_count(), 7u);
}

TEST(Histogram, SumAndUnsortedBoundsAreSorted) {
  Histogram h({100.0, 1.0, 10.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 100.0);
  h.observe(2.0);
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  h.reset();
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, BucketHelpers) {
  const auto dec = decade_buckets(1.0, 5);
  ASSERT_EQ(dec.size(), 5u);
  EXPECT_DOUBLE_EQ(dec[0], 1.0);
  EXPECT_DOUBLE_EQ(dec[4], 1e4);
}

TEST(Registry, ReferencesAreStable) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test.registry.stable");
  Counter& b = reg.counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  // reset() zeroes values but must not invalidate cached references.
  reg.reset();
  EXPECT_EQ(b.value(), 0u);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, HistogramOriginalBoundsWin) {
  Registry& reg = Registry::global();
  Histogram& a = reg.histogram("test.registry.hist", {1.0, 2.0});
  Histogram& b = reg.histogram("test.registry.hist", {5.0, 6.0, 7.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds().size(), 2u);
}

// Exercised under TSan in CI: concurrent increments on one counter must be
// exact (no lost updates) and race-free.
TEST(Registry, ConcurrentCounterIncrementsAreExact) {
  Counter& c = Registry::global().counter("test.registry.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, ConcurrentHistogramObserve) {
  Histogram& h =
      Registry::global().histogram("test.registry.hist_mt", {10.0, 100.0});
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>((t * kPerThread + i) % 200));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.total_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    bucket_sum += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, h.total_count());
}

// Concurrent first-touch registration of distinct names must be safe.
TEST(Registry, ConcurrentRegistration) {
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      Registry::global()
          .counter("test.registry.reg" + std::to_string(t % 3))
          .add();
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (int k = 0; k < 3; ++k) {
    total += Registry::global()
                 .counter("test.registry.reg" + std::to_string(k))
                 .value();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads));
}

TEST(Registry, ToJsonIsWellFormed) {
  Registry& reg = Registry::global();
  reg.counter("test.json.counter\"quoted\"").add(2);
  reg.gauge("test.json.gauge").set(0.125);
  reg.histogram("test.json.hist", decade_buckets(1.0, 3)).observe(42.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(biosense::testing::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace biosense::obs
