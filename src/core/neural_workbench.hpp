// High-level neural recording workbench: the paper's Section 3 as one
// object. Builds a culture, a 128x128 chip, records frames, and extracts
// per-pixel spike detections with quality metrics.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/chip_session.hpp"
#include "dsp/spikes.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"
#include "neuro/culture.hpp"
#include "neurochip/array.hpp"
#include "neurochip/recording.hpp"

namespace biosense::core {

struct NeuralWorkbenchConfig {
  neuro::CultureConfig culture{};
  neurochip::NeuroChipConfig chip{};
  dsp::SpikeDetectorConfig detector{};
  Time recording_duration = 0.5_s;
  /// Adverse-world description: injected pixel defects, gain drift and
  /// host-link faults.
  faults::FaultPlanConfig faults{};
  /// Run the BIST sweep after calibration and mask flagged pixels out of
  /// every recorded frame.
  bool run_bist = false;
  /// Also retain every decoded frame in `NeuralRun::frames`. Switch off
  /// for long recordings where only detections matter: the workbench
  /// consumes frames incrementally (per-pixel traces grow as each frame
  /// arrives), so memory then stays bounded by the default `ChipSession`
  /// pool plus the active-pixel traces.
  bool keep_frames = true;
};

struct PixelDetection {
  int row = 0;
  int col = 0;
  std::vector<dsp::DetectedSpike> spikes;
  double snr_db = 0.0;
  /// Peak |amplitude| of the clean (ground-truth) waveform at this pixel.
  /// Pixels at footprint edges carry microvolt-level truth; filter on this
  /// when aggregating quality metrics.
  double truth_peak = 0.0;
};

struct NeuralRun {
  /// Decoded frames (empty when `keep_frames` is off).
  std::vector<neurochip::NeuroFrame> frames;
  /// Streaming pipeline accounting for the record phase.
  SessionReport session;
  std::vector<PixelDetection> detections;  // pixels with >= 1 detection
  std::size_t active_pixels = 0;
  double mean_abs_offset_v = 0.0;  // pixel calibration quality
  double max_abs_offset_v = 0.0;
  /// BIST result (empty when `run_bist` is off or the sweep failed).
  faults::DefectMap defects;
  /// Yield and masking bookkeeping for this run.
  faults::DegradationSummary degradation;
};

class NeuralWorkbench {
 public:
  NeuralWorkbench(NeuralWorkbenchConfig config, Rng rng);

  /// Calibrates the chip, records, runs detection on every active pixel.
  NeuralRun run();

  neurochip::NeuroChip& chip() { return chip_; }
  const neuro::NeuronCulture& culture() const { return culture_; }

 private:
  NeuralWorkbenchConfig config_;
  neuro::NeuronCulture culture_;
  neurochip::NeuroChip chip_;
  Rng session_rng_;  // per-run link streams (forked after culture + chip)
};

}  // namespace biosense::core
