#include "obs/flight.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <system_error>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::obs {

namespace {

// Restored event names must outlive every recorder, like the literals
// they replace; the interner leaks by design (names are few and small).
std::mutex& intern_mutex() {
  static std::mutex m;
  return m;
}

std::set<std::string>& intern_table() {
  static auto* table = new std::set<std::string>();
  return *table;
}

constexpr std::size_t kMaxEventName = 256;
constexpr std::size_t kMaxSavedEvents = 1u << 16;

}  // namespace

const char* intern_event_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(intern_mutex());
  return intern_table().insert(name).first->c_str();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity),
      slots_(capacity == 0 ? nullptr : new Slot[capacity]) {}

void FlightRecorder::record(const char* name, std::uint32_t session,
                            std::uint64_t a, std::uint64_t b) {
  if (capacity_ == 0) return;
  record_at(name, now_ns(), session, a, b);
}

void FlightRecorder::record_at(const char* name, std::uint64_t t_ns,
                               std::uint32_t session, std::uint64_t a,
                               std::uint64_t b) {
  if (capacity_ == 0) return;
  const std::uint64_t n = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[n % capacity_];
  slot.name.store(name, std::memory_order_relaxed);
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.session.store(session, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.stamp.store(n + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::recorded() const {
  return base_.load(std::memory_order_relaxed) +
         head_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t kept = std::min<std::uint64_t>(head, capacity_);
  return base_.load(std::memory_order_relaxed) + head - kept;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  if (capacity_ == 0) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t kept = std::min<std::uint64_t>(head, capacity_);
  out.reserve(kept);
  for (std::uint64_t i = head - kept; i < head; ++i) {
    const Slot& slot = slots_[i % capacity_];
    if (slot.stamp.load(std::memory_order_acquire) == 0) continue;
    FlightEvent ev;
    const char* name = slot.name.load(std::memory_order_relaxed);
    ev.name = name == nullptr ? "" : name;
    ev.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    ev.session = slot.session.load(std::memory_order_relaxed);
    ev.a = slot.a.load(std::memory_order_relaxed);
    ev.b = slot.b.load(std::memory_order_relaxed);
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::clear() {
  head_.store(0, std::memory_order_relaxed);
  base_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].stamp.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::write_chrome_json(std::ostream& os) const {
  const auto evs = events();
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n  {\"name\": \"" << json_escape(evs[i].name)
       << "\", \"ph\": \"i\", \"s\": \"p\", \"ts\": "
       << static_cast<double>(evs[i].t_ns) / 1e3
       << ", \"pid\": 1, \"tid\": " << evs[i].session
       << ", \"args\": {\"a\": " << evs[i].a << ", \"b\": " << evs[i].b
       << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"flightRecorder\": {"
     << "\"recorded\": " << recorded() << ", \"dropped\": " << dropped()
     << "}}\n";
}

std::string FlightRecorder::dump(const std::string& label) const {
  if (capacity_ == 0) return {};
  const std::string dir = results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::string path = dir + "/" + label + ".flight.json";
  std::ofstream out(path);
  if (!out) return {};
  write_chrome_json(out);
  if (!out.good()) return {};
  std::cout << "artifact: " << path << "\n";
  return path;
}

void FlightRecorder::save_state(snapshot::StateWriter& w) const {
  const auto evs = events();
  w.u64(recorded());
  w.u32(static_cast<std::uint32_t>(evs.size()));
  for (const FlightEvent& ev : evs) {
    w.str(ev.name);
    w.u64(ev.t_ns);
    w.u32(ev.session);
    w.u64(ev.a);
    w.u64(ev.b);
  }
}

void FlightRecorder::load_state(snapshot::StateReader& r) {
  const std::uint64_t total = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxSavedEvents || count > total) {
    r.fail();
    return;
  }
  clear();
  std::string name;
  for (std::uint32_t i = 0; i < count; ++i) {
    r.str(name, kMaxEventName);
    const std::uint64_t t_ns = r.u64();
    const std::uint32_t session = r.u32();
    const std::uint64_t a = r.u64();
    const std::uint64_t b = r.u64();
    if (!r.ok()) return;
    // Replayed through the normal path: a ring smaller than the saving
    // one keeps the newest events, exactly as if it had been recording.
    record_at(intern_event_name(name), t_ns, session, a, b);
  }
  if (capacity_ != 0) {
    base_.store(total - head_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::global() {
  // Sized for "the last few seconds of trouble" in library hot paths;
  // fleet sessions get their own rings sized by FleetLimits.
  static FlightRecorder recorder(1024);
  return recorder;
}

}  // namespace biosense::obs
