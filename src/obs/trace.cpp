#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>

#include "obs/metrics.hpp"

namespace biosense::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  // The shared_ptr is held both thread-locally and by the tracer, so a
  // worker thread that exits (e.g. on pool resize) leaves its events
  // readable.
  thread_local std::shared_ptr<Buffer> buffer = [this] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    b->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(b);
    return b;
  }();
  return *buffer;
}

void Tracer::record(const char* name, std::uint64_t begin_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;
  Buffer& buf = local_buffer();
  TraceEvent ev;
  ev.name = name;
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(buf.mutex);  // uncontended fast path
  ev.tid = buf.tid;
  buf.events.push_back(ev);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mutex);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                              : a.tid < b.tid;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::size_t n = 0;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mutex);
    n += b->events.size();
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const auto events = snapshot();
  os << "{\"traceEvents\": [";
  os.precision(3);
  os << std::fixed;
  bool first = true;
  for (const auto& ev : events) {
    if (!first) os << ",";
    first = false;
    // Complete events ("ph": "X"): ts/dur are microseconds.
    os << "\n  {\"name\": \"" << json_escape(ev.name)
       << "\", \"cat\": \"biosense\", "
       << "\"ph\": \"X\", \"ts\": " << static_cast<double>(ev.begin_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(ev.end_ns - ev.begin_ns) / 1e3
       << ", \"pid\": 1, \"tid\": " << ev.tid << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void Tracer::clear() {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mutex);
    b->events.clear();
  }
}

}  // namespace biosense::obs
