// Parallel capture engine scaling: frames/s of a full 128x128, 2 kframes/s
// capture versus thread count, with a bitwise-identity check across all
// thread counts (the engine's determinism contract).
//
//   ./bench_parallel_scaling [--frames N] [--rows N] [--cols N]
//
// Emits the stdout table plus machine-readable JSON at
// results/bench_parallel_scaling.json so the perf trajectory of the hot
// path is tracked from run to run.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "neurochip/array.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace biosense;

/// Travelling-wave electrode field, implemented against the batched
/// interface the way a production source would be: one phase computation
/// per column, a sin per row.
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
  static constexpr double kAmp = 1e-3;      // 1 mV
  static constexpr double kOmega = 2.0 * 3.14159265358979 * 1e3;
};

/// Sparse neural workload for the event-driven leg: one row in every
/// `kActiveRowStride` carries the travelling wave (a firing neuron's
/// footprint), every other electrode sits at baseline — the between-spikes
/// regime the quiescence threshold is built for.
class SparseWaveSource final : public neurochip::SignalSource {
 public:
  static constexpr int kActiveRowStride = 16;  // 6.25% of pixels active

  double eval(int row, int col, double t) const override {
    if (row % kActiveRowStride != 0) return 0.0;
    return kAmp * std::sin(kOmega * t + 0.13 * col + 0.07 * row);
  }
  void eval_column(int col, double t, std::span<double> out) const override {
    const double phase = kOmega * t + 0.13 * col;
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = (r % kActiveRowStride == 0)
                   ? kAmp * std::sin(phase + 0.07 * static_cast<double>(r))
                   : 0.0;
    }
  }

 private:
  static constexpr double kAmp = 1e-3;      // 1 mV
  static constexpr double kOmega = 2.0 * 3.14159265358979 * 1e3;
};

/// FNV-1a over the frame payloads — equal hashes <=> bitwise-equal frames.
std::uint64_t hash_frames(const std::vector<neurochip::NeuroFrame>& frames) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& f : frames) {
    h = fnv1a(h, f.v_in.data(), f.v_in.size() * sizeof(double));
    h = fnv1a(h, f.codes.data(), f.codes.size() * sizeof(std::int32_t));
  }
  return h;
}

struct ScalingPoint {
  int threads = 1;
  double seconds = 0.0;
  double frames_per_s = 0.0;
  double speedup = 1.0;
  std::uint64_t hash = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  biosense::obs::BenchRun bench_run("bench_parallel_scaling");
  int frames = 256;
  int rows = 128;
  int cols = 128;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0) frames = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--rows") == 0) rows = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--cols") == 0) cols = std::atoi(argv[++i]);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const WaveSource source;
  std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<ScalingPoint> points;

  for (int threads : thread_counts) {
    biosense::obs::PhaseTimer phase("scaling.capture_t" +
                                    std::to_string(threads));
    set_max_threads(threads);
    // Fresh chip per run, same seed: any cross-thread-count deviation is an
    // engine bug, not noise.
    neurochip::NeuroChipConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    neurochip::NeuroChip chip(cfg, Rng(2026));
    chip.calibrate_all();
    chip.capture_frame(source, 0.0);  // warm-up (pool spawn, caches)

    const auto start = std::chrono::steady_clock::now();
    const auto recorded = chip.record(source, 0.0, frames);
    const auto stop = std::chrono::steady_clock::now();

    ScalingPoint p;
    p.threads = threads;
    p.seconds = std::chrono::duration<double>(stop - start).count();
    p.frames_per_s = frames / p.seconds;
    p.hash = hash_frames(recorded);
    p.identical = points.empty() || p.hash == points.front().hash;
    p.speedup = points.empty()
                    ? 1.0
                    : p.frames_per_s / points.front().frames_per_s;
    points.push_back(p);
  }

  // Event-driven sparse leg: a spiking-workload source (6.25% active
  // pixels) with the quiescence threshold enabled. Quiescent pixels skip
  // the full front-end physics, so this leg shows the frames/s the chip's
  // 2 k target is chased with between spikes; its own cross-thread bitwise
  // identity is gated like the dense leg's.
  constexpr double kQuiescenceThresholdV = 0.5e-3;  // half the wave amp
  const SparseWaveSource sparse_source;
  std::vector<ScalingPoint> sparse_points;
  for (int threads : {1, 8}) {
    biosense::obs::PhaseTimer phase("scaling.sparse_t" +
                                    std::to_string(threads));
    set_max_threads(threads);
    neurochip::NeuroChipConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.quiescence_threshold = Voltage(kQuiescenceThresholdV);
    neurochip::NeuroChip chip(cfg, Rng(2026));
    chip.calibrate_all();
    chip.capture_frame(sparse_source, 0.0);  // warm-up

    const auto start = std::chrono::steady_clock::now();
    const auto recorded = chip.record(sparse_source, 0.0, frames);
    const auto stop = std::chrono::steady_clock::now();

    ScalingPoint p;
    p.threads = threads;
    p.seconds = std::chrono::duration<double>(stop - start).count();
    p.frames_per_s = frames / p.seconds;
    p.hash = hash_frames(recorded);
    p.identical = sparse_points.empty() || p.hash == sparse_points.front().hash;
    p.speedup = sparse_points.empty()
                    ? 1.0
                    : p.frames_per_s / sparse_points.front().frames_per_s;
    sparse_points.push_back(p);
  }
  set_max_threads(1);
  bool sparse_identical = true;
  for (const auto& p : sparse_points) {
    sparse_identical = sparse_identical && p.identical;
  }

  Table t("Parallel capture scaling: " + std::to_string(rows) + "x" +
          std::to_string(cols) + ", " + std::to_string(frames) +
          " frames (hardware threads: " + std::to_string(hw) + ")");
  t.set_columns({"threads", "wall [s]", "frames/s", "speedup", "bitwise"});
  bool all_identical = true;
  for (const auto& p : points) {
    all_identical = all_identical && p.identical;
    t.add_row({static_cast<long long>(p.threads), p.seconds, p.frames_per_s,
               p.speedup, std::string(p.identical ? "identical" : "DIVERGES")});
  }
  for (const auto& p : sparse_points) {
    t.add_row({static_cast<long long>(p.threads), p.seconds, p.frames_per_s,
               p.frames_per_s / points.front().frames_per_s,
               std::string(p.identical ? "sparse-ok" : "SPARSE-DIVERGES")});
  }
  t.add_note("chip state is re-seeded per run; 'identical' = FNV-1a over all"
             " frame payloads matches the 1-thread capture");
  t.add_note("sparse rows: event-driven leg (6.25% active pixels, quiescence"
             " threshold 0.5 mV); speedup column is vs the dense 1-thread"
             " leg");
  if (hw < 4) {
    t.add_note("NOTE: only " + std::to_string(hw) + " hardware thread(s)"
               " available — speedups are bounded by the machine, not the"
               " engine");
  }
  t.print(std::cout);

  const std::string out_dir = biosense::obs::results_dir();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/bench_parallel_scaling.json";
  std::ofstream json(json_path);
  if (json) {
    json << "{\"bench\": \"parallel_scaling\", \"rows\": " << rows
         << ", \"cols\": " << cols << ", \"frames\": " << frames
         << ", \"hardware_threads\": " << hw
         << ", \"all_identical\": " << (all_identical ? "true" : "false")
         << ", \"results\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      if (i > 0) json << ", ";
      json << "{\"threads\": " << p.threads << ", \"seconds\": " << p.seconds
           << ", \"frames_per_s\": " << p.frames_per_s
           << ", \"speedup\": " << p.speedup
           << ", \"identical\": " << (p.identical ? "true" : "false") << "}";
    }
    json << "], \"sparse\": {\"threshold_v\": " << kQuiescenceThresholdV
         << ", \"active_row_stride\": " << SparseWaveSource::kActiveRowStride
         << ", \"identical\": " << (sparse_identical ? "true" : "false")
         << ", \"speedup_vs_dense\": "
         << (sparse_points.front().frames_per_s / points.front().frames_per_s)
         << ", \"results\": [";
    for (std::size_t i = 0; i < sparse_points.size(); ++i) {
      const auto& p = sparse_points[i];
      if (i > 0) json << ", ";
      json << "{\"threads\": " << p.threads << ", \"seconds\": " << p.seconds
           << ", \"frames_per_s\": " << p.frames_per_s
           << ", \"identical\": " << (p.identical ? "true" : "false") << "}";
    }
    json << "]}}\n";
    std::cout << "\nartifact: " << json_path << "\n";
  }
  return (all_identical && sparse_identical) ? 0 : 1;
}
