#include "core/neural_workbench.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/stats.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace biosense::core {

NeuralWorkbench::NeuralWorkbench(NeuralWorkbenchConfig config, Rng rng)
    : config_(config),
      culture_(config.culture, rng.fork()),
      chip_(config.chip, rng.fork()),
      session_rng_(rng.fork()) {
  const faults::FaultPlan plan(config.faults);
  if (plan.any_neuro_faults()) {
    chip_.inject_faults(
        plan.neuro_pixel_faults(config.chip.rows, config.chip.cols),
        plan.channel_gain_drift(chip_.channels()));
  }
}

NeuralRun NeuralWorkbench::run() {
  BIOSENSE_SPAN("neural.run");
  NeuralRun out;
  {
    obs::PhaseTimer phase("neural.calibrate");
    chip_.calibrate_all();
  }
  const auto [mean_off, max_off] = chip_.offset_stats();
  out.mean_abs_offset_v = mean_off;
  out.max_abs_offset_v = max_off;

  if (config_.run_bist) {
    obs::PhaseTimer phase("neural.bist");
    if (auto map = chip_.self_test()) {
      out.defects = *map;
      chip_.set_defect_map(std::move(*map));
    } else {
      out.degradation.bist_ok = false;
    }
  }

  neurochip::RecordingSession session(culture_, chip_);
  const int n_frames = static_cast<int>(config_.recording_duration *
                                        config_.chip.frame_rate);
  // Streaming record: frames flow through the staged acquisition pipeline
  // (capture -> serialize -> host decode) and are consumed incrementally —
  // each active pixel's trace grows as its frame arrives, and the frame
  // buffer is recycled unless `keep_frames` asked to retain a copy.
  const neurochip::SignalSource& source = session.prepare(0.0, n_frames);
  const std::vector<int>& keys = session.active_keys();
  std::vector<std::vector<double>> traces(keys.size());
  for (auto& t : traces) t.reserve(static_cast<std::size_t>(n_frames));
  {
    obs::PhaseTimer phase("neural.record");
    SessionConfig session_cfg;
    if (config_.faults.link.any()) {
      session_cfg.link_faults = config_.faults.link;
    }
    ChipSession pipeline(chip_, session_cfg, session_rng_.fork());
    const bool keep = config_.keep_frames;
    if (keep) out.frames.reserve(static_cast<std::size_t>(n_frames));
    FunctionSink<neurochip::NeuroFrame> sink(
        [&](const neurochip::NeuroFrame& f) {
          for (std::size_t i = 0; i < keys.size(); ++i) {
            traces[i].push_back(f.v_in[static_cast<std::size_t>(keys[i])]);
          }
          if (keep) out.frames.push_back(f);
        });
    out.session = pipeline.run(source, 0.0, n_frames, sink);
  }
  out.active_pixels = session.active_pixels();

  obs::PhaseTimer detect_phase("neural.detect");
  // Per-pixel traces -> spike detection; only pixels covered by a neuron
  // footprint are scanned (the rest is noise by construction).
  dsp::SpikeDetectorConfig det = config_.detector;
  det.fs = config_.chip.frame_rate.value();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int r = keys[i] / chip_.cols();
    const int c = keys[i] % chip_.cols();
    const auto& truth = session.ground_truth(r, c);
    if (truth.empty()) continue;
    const std::vector<double>& trace = traces[i];
    auto spikes = dsp::detect_spikes(trace, det);
    if (spikes.empty()) continue;
    PixelDetection d;
    d.row = r;
    d.col = c;
    // Remove the static per-pixel offset (calibration residual) before
    // comparing against the clean waveform — detection does the same via
    // its band-pass.
    std::vector<double> trace_ac = trace;
    std::vector<double> truth_ac = truth;
    const double trace_mean =
        mean(std::span<const double>(trace_ac.data(), trace_ac.size()));
    const double truth_mean =
        mean(std::span<const double>(truth_ac.data(), truth_ac.size()));
    for (auto& v : trace_ac) v -= trace_mean;
    for (auto& v : truth_ac) v -= truth_mean;
    d.snr_db = dsp::snr_db(trace_ac, truth_ac);
    for (double v : truth_ac) d.truth_peak = std::max(d.truth_peak, std::abs(v));
    d.spikes = std::move(spikes);
    out.detections.push_back(std::move(d));
  }

  out.degradation.yield = out.defects.empty() ? 1.0 : out.defects.yield();
  out.degradation.masked =
      static_cast<int>(out.defects.empty() ? 0 : out.defects.defect_count());
  return out;
}

}  // namespace biosense::core
