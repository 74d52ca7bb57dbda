// Streaming acquisition pipeline bench: overlapped capture/decode through
// core::ChipSession versus the batch capture-then-decode path, at 1/2/8
// threads, with three hard gates on the pipeline's core claims:
//
//   1. Bitwise identity — streaming output equals the batch path for every
//      thread count (FNV-1a over all decoded frame payloads).
//   2. Zero steady-state heap allocation — a global operator-new counter
//      shows that growing a warm run by 9x the frames adds zero
//      allocations (pooled frames + ring channels + reused wire scratch).
//   3. Bounded memory — a 10x-length run stays inside the fixed pool
//      budget (pool allocations never exceed the configured capacity).
//
// The overlap speedup itself is reported and only enforced (>= 1.3x at 8
// threads) on machines with >= 4 hardware threads: with fewer cores there
// is nothing to overlap onto, which bounds the speedup at ~1.0 by
// hardware, not by the pipeline (same policy as bench_parallel_scaling).
//
//   ./bench_streaming_pipeline [--frames N] [--rows N] [--cols N]
//
// Emits the stdout table plus machine-readable JSON at
// results/bench_streaming_pipeline.json.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/chip_session.hpp"
#include "neurochip/array.hpp"
#include "obs/manifest.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new increments, so the delta
// across a region counts heap allocations exactly (frees are irrelevant to
// the steady-state claim).
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

/// Travelling-wave electrode field against the batched source interface.
class WaveSource final : public neurochip::SignalSource {
 public:
  double eval(int row, int col, double t) const override {
    return kAmp * std::sin(kOmega * t + 0.13 * col + 0.07 * row);
  }
  void eval_column(int col, double t, std::span<double> out) const override {
    const double phase = kOmega * t + 0.13 * col;
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = kAmp * std::sin(phase + 0.07 * static_cast<double>(r));
    }
  }

 private:
  static constexpr double kAmp = 1e-3;  // 1 mV
  static constexpr double kOmega = 2.0 * 3.14159265358979 * 1e3;
};

/// Streaming hash sink: folds every decoded frame into an FNV-1a hash and
/// never allocates — the consumer for both the identity gate and the
/// allocation gate.
class HashSink final : public StreamSink<neurochip::NeuroFrame> {
 public:
  void on_item(const neurochip::NeuroFrame& f) override {
    mix(&f.t, sizeof(f.t));
    mix(&f.masked, sizeof(f.masked));
    mix(f.v_in.data(), f.v_in.size() * sizeof(double));
    mix(f.codes.data(), f.codes.size() * sizeof(std::int32_t));
    ++frames_;
  }
  void on_end() override {}
  std::uint64_t hash() const { return h_; }
  int frames() const { return frames_; }
  void reset() {
    h_ = kFnv1aOffset;
    frames_ = 0;
  }

 private:
  void mix(const void* data, std::size_t bytes) { h_ = fnv1a(h_, data, bytes); }
  std::uint64_t h_ = kFnv1aOffset;
  int frames_ = 0;
};

constexpr std::uint64_t kChipSeed = 2026;
constexpr std::uint64_t kLinkSeed = 42;

/// Fixed pool budget every session in this bench runs under.
std::size_t session_pool_budget() { return core::SessionConfig{}.pool_frames; }

neurochip::NeuroChip make_chip(int rows, int cols) {
  neurochip::NeuroChipConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  neurochip::NeuroChip chip(cfg, Rng(kChipSeed));
  chip.calibrate_all();
  return chip;
}

/// Batch reference: capture every frame first (parallel engine), then run
/// the wire serially over the collected stack — capture and decode never
/// overlap. Link RNGs fork in the same capture order as the session, so
/// the decoded payloads must be bitwise identical to the streamed ones.
std::uint64_t batch_run(int threads, int rows, int cols, int frames,
                        double* seconds) {
  set_max_threads(threads);
  auto chip = make_chip(rows, cols);
  const WaveSource source;
  core::FrameWire wire(core::FrameCodec(
                           2.0 * chip.config().adc.full_scale.value() /
                               static_cast<double>(1 << chip.config().adc.bits),
                           chip.nominal_conversion_gain()),
                       0.0, std::nullopt, dnachip::RetryPolicy{});
  Rng link_rng(kLinkSeed);
  chip.capture_frame(source, 0.0);  // warm-up (pool spawn, caches)

  const auto start = std::chrono::steady_clock::now();
  auto stack = chip.record(source, 0.0, frames);
  HashSink sink;
  for (std::size_t k = 0; k < stack.size(); ++k) {
    wire.process(stack[k], static_cast<std::uint16_t>(k & 0xffff),
                 link_rng.fork());
    sink.on_item(stack[k]);
  }
  const auto stop = std::chrono::steady_clock::now();
  *seconds = std::chrono::duration<double>(stop - start).count();
  return sink.hash();
}

/// Streaming run: the staged session overlaps capture, wire and delivery.
std::uint64_t stream_run(int threads, int rows, int cols, int frames,
                         double* seconds, core::SessionReport* report) {
  set_max_threads(threads);
  auto chip = make_chip(rows, cols);
  const WaveSource source;
  core::ChipSession session(chip, {}, Rng(kLinkSeed));
  chip.capture_frame(source, 0.0);  // warm-up to match the batch leg

  HashSink sink;
  const auto start = std::chrono::steady_clock::now();
  *report = session.run(source, 0.0, frames, sink);
  const auto stop = std::chrono::steady_clock::now();
  *seconds = std::chrono::duration<double>(stop - start).count();
  return sink.hash();
}

struct Leg {
  int threads = 1;
  double batch_s = 0.0;
  double stream_s = 0.0;
  double overlap_speedup = 1.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_streaming_pipeline");
  int frames = 48;
  int rows = 32;
  int cols = 32;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0) frames = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--rows") == 0) rows = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--cols") == 0) cols = std::atoi(argv[++i]);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts{1, 2, 8};
  std::vector<Leg> legs;
  std::uint64_t reference_hash = 0;
  bool all_identical = true;

  for (int threads : thread_counts) {
    biosense::obs::PhaseTimer phase("stream.compare_t" +
                                    std::to_string(threads));
    Leg leg;
    leg.threads = threads;
    core::SessionReport report;
    const std::uint64_t batch_hash =
        batch_run(threads, rows, cols, frames, &leg.batch_s);
    const std::uint64_t stream_hash =
        stream_run(threads, rows, cols, frames, &leg.stream_s, &report);
    if (legs.empty()) reference_hash = batch_hash;
    leg.identical =
        batch_hash == reference_hash && stream_hash == reference_hash;
    all_identical = all_identical && leg.identical;
    leg.overlap_speedup = leg.batch_s / leg.stream_s;
    legs.push_back(leg);
  }
  set_max_threads(1);

  // Gate 2: zero steady-state allocation. Two serial runs on one warm
  // session, one 9x longer — every setup/warm-up allocation is common to
  // both, so the delta divided by the extra frames is the per-frame
  // allocation count, which the pooled pipeline must hold at exactly zero.
  std::uint64_t steady_allocs = 0;
  {
    biosense::obs::PhaseTimer phase("stream.alloc_gate");
    auto chip = make_chip(rows, cols);
    const WaveSource source;
    core::ChipSession session(chip, {}, Rng(kLinkSeed));
    HashSink sink;
    session.run(source, 0.0, frames, sink);  // warm: pool, scratch, codec
    sink.reset();
    const std::uint64_t before_short = g_alloc_count.load();
    session.run(source, 0.0, frames, sink);
    const std::uint64_t short_allocs = g_alloc_count.load() - before_short;
    sink.reset();
    const std::uint64_t before_long = g_alloc_count.load();
    session.run(source, 0.0, 10 * frames, sink);
    const std::uint64_t long_allocs = g_alloc_count.load() - before_long;
    steady_allocs = long_allocs > short_allocs ? long_allocs - short_allocs : 0;
  }
  const double allocs_per_frame =
      static_cast<double>(steady_allocs) / static_cast<double>(9 * frames);

  // Gate 3: bounded memory at 10x length — the pool budget caps buffer
  // creation no matter how many frames stream through.
  core::SessionReport long_report;
  bool pool_bounded = false;
  {
    biosense::obs::PhaseTimer phase("stream.bounded_10x");
    set_max_threads(8);
    double ignored = 0.0;
    (void)stream_run(8, rows, cols, 10 * frames, &ignored, &long_report);
    set_max_threads(1);
    pool_bounded = long_report.pool.allocations <=
                   static_cast<std::uint64_t>(session_pool_budget());
  }

  Table t("Streaming pipeline: " + std::to_string(rows) + "x" +
          std::to_string(cols) + ", " + std::to_string(frames) +
          " frames, batch capture+decode vs overlapped session "
          "(hardware threads: " + std::to_string(hw) + ")");
  t.set_columns({"threads", "batch [s]", "stream [s]", "overlap", "bitwise"});
  for (const auto& leg : legs) {
    t.add_row({static_cast<long long>(leg.threads), leg.batch_s, leg.stream_s,
               leg.overlap_speedup,
               std::string(leg.identical ? "identical" : "DIVERGES")});
  }
  t.add_note("'identical' = batch and streamed FNV-1a match the 1-thread "
             "batch reference (lossless link)");
  t.add_note("steady-state heap allocations per frame: " +
             std::to_string(allocs_per_frame) + " (gate: exactly 0)");
  t.add_note("10x run: " + std::to_string(long_report.frames) +
             " frames through " +
             std::to_string(long_report.pool.allocations) +
             " pooled buffers (budget " +
             std::to_string(session_pool_budget()) + ")");
  if (hw < 4) {
    t.add_note("NOTE: only " + std::to_string(hw) + " hardware thread(s)"
               " available — overlap is bounded by the machine, not the"
               " pipeline; the >= 1.3x gate applies at hw >= 4");
  }
  t.print(std::cout);

  const double speedup_8t = legs.back().overlap_speedup;
  const bool speedup_ok = hw < 4 || speedup_8t >= 1.3;
  const bool allocs_ok = steady_allocs == 0;

  const std::string out_dir = biosense::obs::results_dir();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/bench_streaming_pipeline.json";
  std::ofstream json(json_path);
  if (json) {
    json << "{\"bench\": \"streaming_pipeline\", \"rows\": " << rows
         << ", \"cols\": " << cols << ", \"frames\": " << frames
         << ", \"hardware_threads\": " << hw
         << ", \"all_identical\": " << (all_identical ? "true" : "false")
         << ", \"steady_allocs_per_frame\": " << allocs_per_frame
         << ", \"pool_budget\": " << session_pool_budget()
         << ", \"pool_allocations_10x\": " << long_report.pool.allocations
         << ", \"results\": [";
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto& leg = legs[i];
      if (i > 0) json << ", ";
      json << "{\"threads\": " << leg.threads
           << ", \"batch_seconds\": " << leg.batch_s
           << ", \"stream_seconds\": " << leg.stream_s
           << ", \"overlap_speedup\": " << leg.overlap_speedup
           << ", \"identical\": " << (leg.identical ? "true" : "false")
           << "}";
    }
    json << "]}\n";
    std::cout << "\nartifact: " << json_path << "\n";
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: streaming output diverged from batch\n");
    return 1;
  }
  if (!allocs_ok) {
    std::fprintf(stderr,
                 "FAIL: %llu steady-state allocations across the 10x run "
                 "(gate: 0 per frame)\n",
                 static_cast<unsigned long long>(steady_allocs));
    return 1;
  }
  if (!pool_bounded) {
    std::fprintf(stderr, "FAIL: 10x run exceeded the fixed pool budget\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: overlap speedup %.2fx < 1.3x at 8 threads on a "
                 "%u-thread machine\n",
                 speedup_8t, hw);
    return 1;
  }
  return 0;
}
