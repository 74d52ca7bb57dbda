// Fleet-server load bench: a closed-loop generator drives a mixed fleet of
// DNA + neural chip sessions through the versioned host-command protocol
// and enforces the server's three core claims:
//
//   1. Scale — >= 256 concurrent sessions sustain >= 1M total commands
//      (create/configure/start/poll/query/ping/drain/destroy scripts),
//      with throughput and p50/p95/p99 command latency reported for 1, 2
//      and 8 worker threads (closed loop, plus an open-loop virtual-time
//      replay at 80% of the measured closed-loop rate).
//   2. Bitwise determinism — every session's response stream (FNV-1a over
//      all accepted response frames) is identical no matter how many
//      worker threads interleave the fleet: sessions partition statically
//      across workers and all per-session randomness is seeded from the
//      session id.
//   3. Zero steady-state heap allocation in the dispatch hot path — a
//      global operator-new counter shows that growing a warm session's
//      start/poll/query/ping script by 9x adds zero allocations, and that
//      a warm kGetSessionHealth probe allocates nothing either.
//   4. Telemetry is near-free and invisible to the data plane — every
//      worker count runs two legs, flight recorders off and on (with a
//      throttled monitor thread polling kGetSessionHealth round-robin and
//      periodically fetching the chunked kGetMetrics snapshot), taking
//      turns in sixteen alternating chunk pairs, and the per-session digests
//      must be bitwise identical across ALL legs. The telemetry tax (median
//      over the chunk pairs of the on leg's throughput loss) and the
//      monitor's health/metrics latency percentiles are reported; the
//      server-wide flight ring must drop nothing at this load.
//
//   ./bench_fleet_server [--sessions N] [--commands N]
//
// Emits the stdout table plus machine-readable JSON at
// results/bench_fleet_server.json and percentile gauges in the manifest.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "host/client.hpp"
#include "host/fleet_server.hpp"
#include "host/protocol.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/wire.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (same discipline as bench_streaming_pipeline):
// every operator-new increments, so the delta across a region counts heap
// allocations exactly.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               size == 0 ? static_cast<std::size_t>(align)
                                         : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

namespace {

using namespace biosense;
using host::FleetClient;
using host::HostStatus;

/// The per-session command script is a pure function of (session id,
/// command index): 16-command blocks of start(4) + polls + query + ping,
/// bracketed by create/configure and drain/destroy. Even session ids are
/// neural chips (8x8), odd ids are DNA microarrays (4x4).
struct SessionScript {
  std::uint32_t id = 0;
  int commands = 0;
};

FleetClient::SessionSpec spec_for(std::uint32_t id) {
  FleetClient::SessionSpec spec;
  spec.id = id;
  spec.kind = (id % 2 == 0) ? core::ChipKind::kNeuro : core::ChipKind::kDna;
  spec.rows = (id % 2 == 0) ? 8 : 4;
  spec.cols = (id % 2 == 0) ? 8 : 4;
  spec.seed = 1 + id * 2654435761ULL;  // Knuth spread; determinism anchor
  spec.pool_frames = 2;
  spec.ring_depth = 32;
  return spec;
}

/// Per-worker run state: each worker owns the clients of the sessions
/// statically assigned to it (session s -> worker s % W) and a latency
/// trace preallocated before the timed region.
struct WorkerResult {
  std::uint64_t commands = 0;
  std::uint64_t records = 0;
  std::uint64_t errors = 0;  // unexpected statuses (anything but the script)
  std::vector<float> latency_us;   // per-command, issue order
  std::map<std::uint32_t, std::uint64_t> digests;  // session -> response FNV
};

/// Executes command `k` of the session's script on `client`. Returns the
/// number of records delivered (polls) and bumps `errors` on any status the
/// script does not expect.
std::uint64_t run_command(FleetClient& client, std::uint32_t id, int k,
                          int total, std::vector<FleetClient::Record>& scratch,
                          std::uint64_t* errors) {
  const auto expect_ok = [errors](bool ok) {
    if (!ok) ++*errors;
  };
  if (k == 0) {
    expect_ok(static_cast<bool>(client.create(spec_for(id))));
    return 0;
  }
  if (k == 1) {
    if (id % 2 == 0) {
      // Neural probe amplitude in microvolts, spread per session.
      expect_ok(static_cast<bool>(client.configure(id, 1, 100 + id % 400)));
    } else {
      // Short conversion gates (codes 0-3 -> 1-8 ms). They date from the
      // per-cycle I2F model, when a long gate at nA currents cost ~1e5 loop
      // iterations per acquire. A conversion now costs the same at any
      // gate; moving this script to the paper's gate ladder is open work
      // (ROADMAP).
      expect_ok(static_cast<bool>(client.configure(id, 0, id % 4)));
    }
    return 0;
  }
  if (k == total - 2) {
    expect_ok(static_cast<bool>(client.drain(id)));
    return 0;
  }
  if (k == total - 1) {
    expect_ok(static_cast<bool>(client.destroy(id)));
    return 0;
  }
  switch ((k - 2) % 16) {
    case 0:
      expect_ok(static_cast<bool>(client.start(id, 4)));
      return 0;
    case 13: {
      std::uint8_t probe[8];
      const std::uint64_t tag = id ^ (static_cast<std::uint64_t>(k) << 32);
      std::memcpy(probe, &tag, sizeof(probe));
      expect_ok(static_cast<bool>(client.ping(probe, sizeof(probe))));
      return 0;
    }
    case 14:
      // Query exercises the read-only stats path every block.
      expect_ok(static_cast<bool>(client.query(id)));
      return 0;
    case 15: {
      scratch.clear();
      const auto polled = client.poll(id, 64, scratch);
      expect_ok(static_cast<bool>(polled));
      return polled ? polled->returned : 0;
    }
    default: {
      scratch.clear();
      const auto polled = client.poll(id, 4, scratch);
      expect_ok(static_cast<bool>(polled));
      return polled ? polled->returned : 0;
    }
  }
}

struct Leg {
  int workers = 1;
  bool telemetry = false;
  double seconds = 0.0;
  double throughput_cps = 0.0;
  double closed_p50_us = 0.0, closed_p95_us = 0.0, closed_p99_us = 0.0;
  double open_p50_us = 0.0, open_p95_us = 0.0, open_p99_us = 0.0;
  double offered_cps = 0.0;
  std::uint64_t commands = 0;
  std::uint64_t records = 0;
  std::uint64_t errors = 0;
};

double percentile_us(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Monitor-side telemetry evidence, pooled across the telemetry legs.
struct MonitorStats {
  std::vector<float> health_latency_us;
  std::vector<float> metrics_latency_us;
  std::uint64_t errors = 0;
  std::uint32_t next = 1;  // round-robin health-probe target
  int probes_since_metrics = 0;
};

/// One leg: a fleet server with flight recorders off or on, driven by
/// `workers` closed-loop threads (session s runs on worker (s - 1) % W).
/// It runs in chunks of consecutive sessions, so an off leg and an on leg
/// of the same worker count can take turns.
class LegRun {
 public:
  LegRun(int workers, bool telemetry, int sessions, int commands)
      : workers_(workers),
        telemetry_(telemetry),
        commands_(commands),
        server_(limits(telemetry)),
        link_(server_),
        results_(static_cast<std::size_t>(workers)) {
    // Latency traces are preallocated before any timed region.
    for (int w = 0; w < workers; ++w) {
      const int assigned = sessions / workers + (w < sessions % workers);
      results_[static_cast<std::size_t>(w)].latency_us.reserve(
          static_cast<std::size_t>(assigned) *
          static_cast<std::size_t>(commands));
    }
  }

  /// Runs every command of sessions [first, last]; returns the wall time.
  /// Telemetry legs run a throttled monitor alongside: a round-robin
  /// kGetSessionHealth probe every 500us (a dead or not-yet created
  /// session answering kNoSuchSession is expected traffic), plus the full
  /// chunked kGetMetrics snapshot every 100 probes. Its client keeps its
  /// own response digest, so the workers' streams are the determinism
  /// evidence.
  double run_chunk(std::uint32_t first, std::uint32_t last, int sessions,
                   MonitorStats& monitor) {
    const auto run_worker = [&](int w) {
      WorkerResult& r = results_[static_cast<std::size_t>(w)];
      std::vector<FleetClient::Record> scratch;
      scratch.reserve(256);
      for (std::uint32_t id = first; id <= last; ++id) {
        if (static_cast<int>((id - 1) % workers_) != w) continue;
        FleetClient client(link_);
        for (int k = 0; k < commands_; ++k) {
          const auto begin = std::chrono::steady_clock::now();
          r.records +=
              run_command(client, id, k, commands_, scratch, &r.errors);
          const auto end = std::chrono::steady_clock::now();
          r.latency_us.push_back(static_cast<float>(
              std::chrono::duration<double, std::micro>(end - begin)
                  .count()));
          ++r.commands;
        }
        r.digests[id] = client.response_digest();
      }
    };

    std::atomic<bool> monitor_stop{false};
    std::thread monitor_thread;
    if (telemetry_) {
      monitor_thread = std::thread([&] {
        FleetClient mon(link_);
        while (!monitor_stop.load(std::memory_order_relaxed)) {
          const auto h0 = std::chrono::steady_clock::now();
          const auto health = mon.session_health(monitor.next);
          const auto h1 = std::chrono::steady_clock::now();
          monitor.health_latency_us.push_back(static_cast<float>(
              std::chrono::duration<double, std::micro>(h1 - h0).count()));
          if (!health && health.error() != HostStatus::kNoSuchSession) {
            ++monitor.errors;
          }
          monitor.next =
              monitor.next % static_cast<std::uint32_t>(sessions) + 1;
          if (++monitor.probes_since_metrics >= 100) {
            monitor.probes_since_metrics = 0;
            const auto m0 = std::chrono::steady_clock::now();
            const auto snap = mon.metrics();
            const auto m1 = std::chrono::steady_clock::now();
            monitor.metrics_latency_us.push_back(static_cast<float>(
                std::chrono::duration<double, std::micro>(m1 - m0).count()));
            if (!snap) ++monitor.errors;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }

    const auto start = std::chrono::steady_clock::now();
    if (workers_ == 1) {
      run_worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers_));
      for (int w = 0; w < workers_; ++w) pool.emplace_back(run_worker, w);
      for (auto& t : pool) t.join();
    }
    const auto stop = std::chrono::steady_clock::now();
    if (telemetry_) {
      monitor_stop.store(true, std::memory_order_relaxed);
      monitor_thread.join();
    }
    const double chunk_s = std::chrono::duration<double>(stop - start).count();
    seconds_ += chunk_s;
    return chunk_s;
  }

  /// Closes the leg: its manifest phase (the summed wall time of its
  /// chunks), latency percentiles (closed loop, plus the open-loop
  /// virtual-time replay) and, for a telemetry leg, the server flight-ring
  /// audit.
  Leg finish(MonitorStats& monitor, std::uint64_t& flight_dropped) {
    biosense::obs::RunManifest::global().add_phase(
        "fleet.workers_" + std::to_string(workers_) +
            (telemetry_ ? ".telemetry" : ".off"),
        seconds_, biosense::obs::current_rss_kb());
    if (telemetry_) {
      // The server ring saw every session's lifecycle; at bench load it
      // must not have wrapped (dropping post-mortem evidence silently
      // would defeat the flight recorder's purpose).
      FleetClient audit(link_);
      const auto dump = audit.dump_flight_recorder(host::kServerFlightScope);
      if (dump) {
        flight_dropped += dump->dropped;
      } else {
        ++monitor.errors;
      }
    }

    Leg leg;
    leg.workers = workers_;
    leg.telemetry = telemetry_;
    leg.seconds = seconds_;
    std::vector<float> all_latency;
    for (auto& r : results_) {
      leg.commands += r.commands;
      leg.records += r.records;
      leg.errors += r.errors;
      all_latency.insert(all_latency.end(), r.latency_us.begin(),
                         r.latency_us.end());
      digests_.insert(r.digests.begin(), r.digests.end());
    }
    leg.throughput_cps = static_cast<double>(leg.commands) / leg.seconds;
    leg.closed_p50_us = percentile_us(all_latency, 0.50);
    leg.closed_p95_us = percentile_us(all_latency, 0.95);
    leg.closed_p99_us = percentile_us(all_latency, 0.99);

    // Open-loop replay: offer commands at 80% of the measured closed-loop
    // rate and queue them FIFO per worker against the recorded service
    // times — latency then includes queueing delay, the open-loop view.
    leg.offered_cps = 0.8 * leg.throughput_cps;
    std::vector<float> open_latency;
    open_latency.reserve(all_latency.size());
    const double per_worker_rate =
        leg.offered_cps / static_cast<double>(workers_);
    for (auto& r : results_) {
      double virtual_now = 0.0;
      for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
        const double arrival = 1e6 * static_cast<double>(i) / per_worker_rate;
        const double begin = std::max(arrival, virtual_now);
        virtual_now = begin + static_cast<double>(r.latency_us[i]);
        open_latency.push_back(static_cast<float>(virtual_now - arrival));
      }
    }
    leg.open_p50_us = percentile_us(open_latency, 0.50);
    leg.open_p95_us = percentile_us(open_latency, 0.95);
    leg.open_p99_us = percentile_us(open_latency, 0.99);
    return leg;
  }

  const std::map<std::uint32_t, std::uint64_t>& digests() const {
    return digests_;
  }

 private:
  static host::FleetLimits limits(bool telemetry) {
    host::FleetLimits limits;
    if (telemetry) {
      limits.flight_events = 256;
      limits.server_flight_events = 2048;
    }
    return limits;
  }

  int workers_;
  bool telemetry_;
  int commands_;
  host::FleetServer server_;
  host::ServerLink link_;
  std::vector<WorkerResult> results_;
  std::map<std::uint32_t, std::uint64_t> digests_;
  double seconds_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_fleet_server");
  int sessions = 256;
  int commands_per_session = 4096;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--commands") == 0) {
      commands_per_session = std::atoi(argv[++i]);
    }
  }
  // Captures run inline on the calling worker: external threads are the
  // concurrency, the deterministic engine must not add its own.
  set_max_threads(1);

  const std::vector<int> worker_counts{1, 2, 8};
  std::vector<Leg> legs;
  std::map<std::uint32_t, std::uint64_t> reference_digests;
  bool deterministic = true;
  bool telemetry_deterministic = true;
  MonitorStats monitor;
  std::uint64_t flight_dropped = 0;
  std::vector<double> pair_taxes;
  std::map<int, int> tax_pairs;  // worker count -> off/on pairs run

  // Every worker count runs two legs over the same sessions and scripts:
  // flight recorders off (the shipped configuration, which sets the
  // throughput reference) and on with the monitor attached (the telemetry
  // leg), so the digests must match across all six legs. The two legs take
  // turns, one chunk of 1/tax_chunks of the sessions at a time, swapping
  // which goes first every chunk. On a shared host one 5 s leg differs from
  // the next by 20-30%, far beyond the 5% tax budget; taking turns cancels
  // that drift and yields many off/on pairs, each reading (on - off) / on
  // in wall time, for the cost of six legs.
  const int tax_chunks = 16;
  for (const int workers : worker_counts) {
    LegRun off(workers, false, sessions, commands_per_session);
    LegRun on(workers, true, sessions, commands_per_session);
    for (int chunk = 0; chunk < tax_chunks; ++chunk) {
      const auto first =
          static_cast<std::uint32_t>(chunk * sessions / tax_chunks + 1);
      const auto last =
          static_cast<std::uint32_t>((chunk + 1) * sessions / tax_chunks);
      if (first > last) continue;  // fewer sessions than chunks
      double off_s = 0.0, on_s = 0.0;
      if (chunk % 2 == 0) {
        off_s = off.run_chunk(first, last, sessions, monitor);
        on_s = on.run_chunk(first, last, sessions, monitor);
      } else {
        on_s = on.run_chunk(first, last, sessions, monitor);
        off_s = off.run_chunk(first, last, sessions, monitor);
      }
      pair_taxes.push_back((on_s - off_s) / on_s);
      ++tax_pairs[workers];
    }

    for (LegRun* run : {&off, &on}) {
      legs.push_back(run->finish(monitor, flight_dropped));
      const Leg& leg = legs.back();
      if (legs.size() == 1) {
        reference_digests = run->digests();
      } else if (run->digests() != reference_digests) {
        deterministic = false;
        if (leg.telemetry) telemetry_deterministic = false;
      }
      if (!leg.telemetry) {
        // The shipped (untelemetered) numbers are what the manifest gauges
        // record; the telemetry legs report through the tax instead.
        auto& registry = biosense::obs::Registry::global();
        const std::string prefix =
            "fleet.bench.w" + std::to_string(workers) + ".";
        registry.gauge(prefix + "throughput_cps").set(leg.throughput_cps);
        registry.gauge(prefix + "p50_us").set(leg.closed_p50_us);
        registry.gauge(prefix + "p95_us").set(leg.closed_p95_us);
        registry.gauge(prefix + "p99_us").set(leg.closed_p99_us);
      }
    }
  }
  std::vector<float>& health_latency_us = monitor.health_latency_us;
  std::vector<float>& metrics_latency_us = monitor.metrics_latency_us;
  const std::uint64_t monitor_errors = monitor.errors;

  // Telemetry tax: the median over all chunk pairs of the throughput the
  // telemetry leg gave up, clamped at zero — on a loaded machine the on
  // leg can win.
  std::vector<double> sorted_taxes = pair_taxes;
  std::sort(sorted_taxes.begin(), sorted_taxes.end());
  const std::size_t mid = sorted_taxes.size() / 2;
  const double median_tax =
      sorted_taxes.size() % 2 == 1
          ? sorted_taxes[mid]
          : 0.5 * (sorted_taxes[mid - 1] + sorted_taxes[mid]);
  const double telemetry_tax = std::max(0.0, median_tax);
  const double health_p50 = percentile_us(health_latency_us, 0.50);
  const double health_p95 = percentile_us(health_latency_us, 0.95);
  const double health_p99 = percentile_us(health_latency_us, 0.99);
  const double metrics_p50 = percentile_us(metrics_latency_us, 0.50);
  const double metrics_p95 = percentile_us(metrics_latency_us, 0.95);
  const double metrics_p99 = percentile_us(metrics_latency_us, 0.99);
  {
    auto& registry = biosense::obs::Registry::global();
    registry.gauge("fleet.bench.telemetry_tax").set(telemetry_tax);
    registry.gauge("fleet.bench.health_p99_us").set(health_p99);
    registry.gauge("fleet.bench.metrics_p99_us").set(metrics_p99);
  }

  // Gate 3: zero steady-state allocation in the dispatch hot path. One
  // warm neural session; the steady script (start/poll/query/ping) runs a
  // short and a 10x window — the delta over the extra commands must be
  // exactly zero (the DNA chip model's transaction path is control-plane
  // and allocates by design; the dispatch/poll path must not).
  std::uint64_t steady_allocs = 0;
  std::uint64_t health_allocs = 0;
  int steady_commands = 0;
  const int health_probes = 256;
  {
    biosense::obs::PhaseTimer phase("fleet.alloc_gate");
    // Telemetry stays ON here: the zero-alloc contract covers the command
    // hot path with flight recording and outcome tracking live.
    host::FleetLimits limits;
    limits.flight_events = 64;
    limits.server_flight_events = 256;
    host::FleetServer server(limits);
    host::ServerLink link(server);
    FleetClient client(link);
    std::vector<FleetClient::Record> scratch;
    scratch.reserve(256);
    const std::uint32_t id = 2;  // even = neural
    std::uint64_t errors = 0;
    const int block = 64;
    const auto run_block = [&](int n) {
      for (int k = 0; k < n; ++k) {
        run_command(client, id, k == 0 ? 2 : 2 + (k % 16), 1 << 30, scratch,
                    &errors);
      }
    };
    run_command(client, id, 0, 1 << 30, scratch, &errors);  // create
    run_command(client, id, 1, 1 << 30, scratch, &errors);  // configure
    run_block(2 * block);                                   // warm
    const std::uint64_t before_short = g_alloc_count.load();
    run_block(block);
    const std::uint64_t short_allocs = g_alloc_count.load() - before_short;
    const std::uint64_t before_long = g_alloc_count.load();
    run_block(10 * block);
    const std::uint64_t long_allocs = g_alloc_count.load() - before_long;
    steady_allocs = long_allocs > short_allocs ? long_allocs - short_allocs
                                               : 0;
    steady_commands = 9 * block;
    // A warm health probe is part of the hot path too — a monitor polling
    // the fleet must not make the server allocate.
    for (int i = 0; i < 8; ++i) {
      if (!client.session_health(id)) ++errors;
    }
    const std::uint64_t before_health = g_alloc_count.load();
    for (int i = 0; i < health_probes; ++i) {
      if (!client.session_health(id)) ++errors;
    }
    health_allocs = g_alloc_count.load() - before_health;
    if (errors != 0) {
      std::fprintf(stderr, "FAIL: alloc-gate script hit %llu errors\n",
                   static_cast<unsigned long long>(errors));
      return 1;
    }
  }
  const double allocs_per_command =
      static_cast<double>(steady_allocs) / static_cast<double>(steady_commands);
  biosense::obs::Registry::global()
      .gauge("fleet.bench.steady_allocs_per_command")
      .set(allocs_per_command);

  const std::uint64_t total_commands =
      static_cast<std::uint64_t>(sessions) *
      static_cast<std::uint64_t>(commands_per_session);
  std::uint64_t total_errors = 0;
  for (const auto& leg : legs) total_errors += leg.errors;

  Table t("Fleet server: " + std::to_string(sessions) +
          " mixed DNA+neuro sessions x " +
          std::to_string(commands_per_session) + " commands (" +
          std::to_string(total_commands) + " total per worker config)");
  t.set_columns({"workers", "telemetry", "wall [s]", "cmd/s", "p50 [us]",
                 "p95 [us]", "p99 [us]", "open p99 [us]"});
  for (const auto& leg : legs) {
    t.add_row({static_cast<long long>(leg.workers),
               std::string(leg.telemetry ? "on" : "off"), leg.seconds,
               leg.throughput_cps, leg.closed_p50_us, leg.closed_p95_us,
               leg.closed_p99_us, leg.open_p99_us});
  }
  t.add_note(std::string("per-session response streams bitwise ") +
             (deterministic ? "identical" : "DIVERGENT") +
             " across 1/2/8 workers and telemetry off/on (FNV-1a over "
             "response frames)");
  t.add_note("open-loop percentiles: virtual-time replay at 80% of the "
             "measured closed-loop rate");
  t.add_note("steady-state heap allocations per command: " +
             std::to_string(allocs_per_command) + " (gate: exactly 0); per "
             "health probe: " +
             std::to_string(static_cast<double>(health_allocs) /
                            static_cast<double>(health_probes)) +
             " (gate: exactly 0)");
  std::string pair_list;
  for (const double tax : pair_taxes) {
    char entry[24];
    std::snprintf(entry, sizeof(entry), "%s%.1f", pair_list.empty() ? "" : ", ",
                  100.0 * tax);
    pair_list += entry;
  }
  t.add_note("telemetry tax: " + std::to_string(100.0 * telemetry_tax) +
             "% throughput, median of " + std::to_string(pair_taxes.size()) +
             " off/on chunk pairs [" + pair_list + " %]; monitor health p99 " +
             std::to_string(health_p99) + " us, metrics p99 " +
             std::to_string(metrics_p99) + " us; server flight ring "
             "dropped " + std::to_string(flight_dropped) + " events");
  t.print(std::cout);

  const bool pass = deterministic && telemetry_deterministic &&
                    steady_allocs == 0 && health_allocs == 0 &&
                    total_errors == 0 && monitor_errors == 0 &&
                    flight_dropped == 0;

  const std::string out_dir = biosense::obs::results_dir();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/bench_fleet_server.json";
  std::ofstream json(json_path);
  if (json) {
    json << "{\"bench\": \"fleet_server\", \"sessions\": " << sessions
         << ", \"commands_per_session\": " << commands_per_session
         << ", \"commands_total\": " << total_commands
         << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ", \"deterministic\": " << (deterministic ? "true" : "false")
         << ", \"steady_allocs_per_command\": " << allocs_per_command
         << ", \"errors\": " << total_errors
         << ", \"pass\": " << (pass ? "true" : "false")
         << ", \"telemetry\": {\"tax\": " << telemetry_tax
         << ", \"tax_pairs\": {";
    const char* sep = "";
    for (const auto& [workers, pairs] : tax_pairs) {
      json << sep << "\"" << workers << "\": " << pairs;
      sep = ", ";
    }
    json << "}"
         << ", \"telemetry_deterministic\": "
         << (telemetry_deterministic ? "true" : "false")
         << ", \"flight_dropped\": " << flight_dropped
         << ", \"monitor_errors\": " << monitor_errors
         << ", \"health_probes\": " << health_latency_us.size()
         << ", \"health_allocs_per_probe\": "
         << (static_cast<double>(health_allocs) /
             static_cast<double>(health_probes))
         << ", \"health\": {\"p50_us\": " << health_p50
         << ", \"p95_us\": " << health_p95
         << ", \"p99_us\": " << health_p99 << "}"
         << ", \"metrics\": {\"p50_us\": " << metrics_p50
         << ", \"p95_us\": " << metrics_p95
         << ", \"p99_us\": " << metrics_p99 << "}}"
         << ", \"latency\": [";
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto& leg = legs[i];
      if (i > 0) json << ", ";
      json << "{\"workers\": " << leg.workers
           << ", \"telemetry\": " << (leg.telemetry ? "true" : "false")
           << ", \"seconds\": " << leg.seconds
           << ", \"throughput_cps\": " << leg.throughput_cps
           << ", \"records\": " << leg.records
           << ", \"closed\": {\"p50_us\": " << leg.closed_p50_us
           << ", \"p95_us\": " << leg.closed_p95_us
           << ", \"p99_us\": " << leg.closed_p99_us << "}"
           << ", \"open\": {\"offered_cps\": " << leg.offered_cps
           << ", \"p50_us\": " << leg.open_p50_us
           << ", \"p95_us\": " << leg.open_p95_us
           << ", \"p99_us\": " << leg.open_p99_us << "}"
           << "}";
    }
    json << "]}\n";
    std::cout << "\nartifact: " << json_path << "\n";
  }

  // Fetch the process registry back over the wire (kGetMetrics,
  // chunked) and render the decoded snapshot — the same bytes a live
  // monitor would see, and the artifact tools/obs_report.py consumes.
  {
    host::FleetServer server;
    host::ServerLink link(server);
    FleetClient client(link);
    if (const auto snap = client.metrics()) {
      const std::string metrics_path =
          out_dir + "/bench_fleet_server.metrics.json";
      std::ofstream metrics_out(metrics_path);
      if (metrics_out) {
        metrics_out << biosense::obs::snapshot_to_json(*snap) << "\n";
        std::cout << "artifact: " << metrics_path << "\n";
      }
    }
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: per-session response streams diverged across worker "
                 "counts\n");
    return 1;
  }
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu steady-state allocations across the 10x window "
                 "(gate: 0 per command)\n",
                 static_cast<unsigned long long>(steady_allocs));
    return 1;
  }
  if (total_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu unexpected command statuses\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (health_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu allocations across %d warm health probes "
                 "(gate: 0 per probe)\n",
                 static_cast<unsigned long long>(health_allocs),
                 health_probes);
    return 1;
  }
  if (monitor_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu unexpected monitor statuses\n",
                 static_cast<unsigned long long>(monitor_errors));
    return 1;
  }
  if (flight_dropped != 0) {
    std::fprintf(stderr,
                 "FAIL: server flight ring dropped %llu events at bench "
                 "load (gate: 0)\n",
                 static_cast<unsigned long long>(flight_dropped));
    return 1;
  }
  return 0;
}
