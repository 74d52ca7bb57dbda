#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs_json.hpp"

namespace biosense::obs {
namespace {

// The tracer is process-global; each test starts from a clean, disabled
// state so ordering between tests does not matter.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(TraceTest, DisabledTracerDropsSpans) {
  {
    SpanGuard span("test.dropped");
  }
  // record() itself is documented as a no-op while disabled.
  Tracer::global().record("test.direct", 10, 20);
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(TraceTest, SpanGuardRecordsWhenEnabled) {
  Tracer::global().enable();
  {
    SpanGuard span("test.outer");
    SpanGuard inner("test.inner");
  }
  ASSERT_EQ(Tracer::global().event_count(), 2u);
  const auto events = Tracer::global().snapshot();
  // Snapshot orders by begin time: outer begins before inner, and both
  // spans close with end >= begin.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  for (const auto& e : events) EXPECT_GE(e.end_ns, e.begin_ns);
}

TEST_F(TraceTest, PerThreadBuffersSurviveThreadExit) {
  Tracer::global().enable();
  constexpr int kThreads = 4;
  constexpr int kSpans = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        SpanGuard span("test.worker");
      }
    });
  }
  for (auto& w : workers) w.join();
  // Threads are gone; their events must still be in the snapshot.
  EXPECT_EQ(Tracer::global().event_count(),
            static_cast<std::size_t>(kThreads) * kSpans);
  const auto events = Tracer::global().snapshot();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);
  }
}

TEST_F(TraceTest, ChromeJsonRoundTrip) {
  Tracer::global().enable();
  {
    SpanGuard span("test.round\"trip\"");  // name needing JSON escaping
    SpanGuard control("test.control\n\t\x01" "chars");  // dropped, not raw
  }
  std::thread([] { SpanGuard span("test.other_thread"); }).join();
  Tracer::global().disable();

  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  const std::string json = os.str();

  EXPECT_TRUE(biosense::testing::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"trip\\\""), std::string::npos);
  EXPECT_NE(json.find("\"test.controlchars\""), std::string::npos);
  EXPECT_NE(json.find("\"test.other_thread\""), std::string::npos);

  // Round-trip: every buffered event appears exactly once as a "ph": "X"
  // record.
  std::size_t phase_records = 0;
  for (std::size_t pos = json.find("\"ph\""); pos != std::string::npos;
       pos = json.find("\"ph\"", pos + 1)) {
    ++phase_records;
  }
  EXPECT_EQ(phase_records, Tracer::global().event_count());
}

TEST_F(TraceTest, ClearDropsEventsButKeepsBuffers) {
  Tracer::global().enable();
  {
    SpanGuard span("test.pre_clear");
  }
  ASSERT_EQ(Tracer::global().event_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().event_count(), 0u);
  {
    SpanGuard span("test.post_clear");
  }
  EXPECT_EQ(Tracer::global().event_count(), 1u);
}

TEST_F(TraceTest, NowNsIsMonotonic) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace biosense::obs
