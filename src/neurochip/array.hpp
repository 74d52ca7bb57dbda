// The 128x128 neural recording chip (Fig. 6 signal path).
//
// Architecture (following the paper's description and block diagram):
//  * 128x128 calibrated sensor pixels on a 7.8 um pitch (1 mm x 1 mm
//    total sensor area), each monitored "independent of its individual
//    position" because the pitch is below the smallest neuron diameter.
//  * Per ROW: a signal line into an on-chip calibrated current-gain chain
//    (x100, x7) and readout amplifier with 4 MHz bandwidth. Calibration is
//    "periodically performed for all rows in parallel and for all columns
//    in sequence".
//  * Rows are grouped 8:1 by multiplexers into 16 parallel output channels,
//    each with an off-chip gain chain (x4, x2) behind a 32 MHz output
//    driver, then A/D conversion off chip.
//  * Full frame rate: 2 k frames/s -> column dwell 3.9 us, mux slot 488 ns.
//
// Execution model: `capture_frame` runs on the global thread pool in two
// deterministic phases — batched `SignalSource` evaluation across columns,
// then the analog signal path across output channels (a channel owns its
// mux group of rows, their pixels, row chains and the channel chain, so
// every piece of mutable state — including each pixel's noise counter and
// flicker poles — is touched by exactly one worker, in the same order as
// the serial scan). Frames are bitwise-identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/gain_stage.hpp"
#include "common/error.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stream.hpp"
#include "dnachip/serial.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/pixel_bank.hpp"
#include "neurochip/signal_source.hpp"
#include "noise/mismatch.hpp"

namespace biosense::neurochip {

/// Schema version of NeuroChip::save_state's layout, written on the chip
/// section of every checkpoint. Version 1 was the per-pixel object layout
/// with three generator states per pixel; version 2 is the counter-based
/// bank (PixelBank::save_state). Readers refuse other versions.
inline constexpr std::uint16_t kChipStateVersion = 2;

struct AdcParams {
  int bits = 10;
  /// Full-scale input current (after the gain chain). Signals beyond
  /// +/- full scale clip.
  Current full_scale = 2.0_mA;
};

struct NeuroChipConfig {
  int rows = 128;
  int cols = 128;
  Length pitch = 7.8_um;
  Frequency frame_rate = 2.0_kHz;  // frames/s
  int mux_factor = 8;             // rows per output channel
  PixelParams pixel{};
  noise::PelgromCoefficients pelgrom{};
  double gain_sigma = 0.03;       // per-stage gain spread (relative)
  Current gain_offset_sigma = 20.0_nA;  // stage offset spread (at stage input)
  AdcParams adc{};
  /// Pixels are re-calibrated every this interval (droop otherwise
  /// accumulates).
  Time recalibration_interval = 0.25_s;
  /// Event-driven sparse readout: pixels whose source signal magnitude is
  /// below this threshold skip the full front-end physics, draw no noise
  /// and report their cached quiescent current; their flicker poles
  /// fast-forward exactly on the next active read (DESIGN.md §16 has the
  /// determinism argument and the remaining approximation). 0 (the
  /// default) disables the sparse path.
  Voltage quiescence_threshold = 0.0_V;

  /// Throws ConfigError when the configuration is inconsistent (empty
  /// array, mux factor not dividing rows, non-positive rates, ...).
  /// Called by the NeuroChip constructor.
  void validate() const;
};

/// Derived timing numbers; the bench checks them against the paper.
struct TimingBudget {
  double frame_period = 0.0;     // s
  double column_dwell = 0.0;     // s per column (all rows in parallel)
  double mux_slot = 0.0;         // s per row within a channel's mux cycle
  double pixel_rate_total = 0.0; // samples/s over the whole array
  double channel_rate = 0.0;     // samples/s per output channel
  double row_amp_settle_taus = 0.0;   // column dwell / tau(4 MHz)
  double driver_settle_taus = 0.0;    // mux slot / tau(32 MHz)
};

/// One captured frame: input-referred voltages (V) plus raw ADC codes,
/// row-major.
struct NeuroFrame {
  int rows = 0;
  int cols = 0;
  std::vector<double> v_in;          // reconstructed electrode voltage, V
  std::vector<std::int32_t> codes;   // raw ADC output
  double t = 0.0;                    // frame start time, s
  int masked = 0;                    // pixels masked via the defect map

  /// Bounds-checked input-referred voltage accessor (mirrors `code_at`).
  double& at(int r, int c) {
    require(r >= 0 && r < rows && c >= 0 && c < cols,
            "NeuroFrame::at: pixel out of range");
    return v_in[static_cast<std::size_t>(r * cols + c)];
  }
  double at(int r, int c) const {
    require(r >= 0 && r < rows && c >= 0 && c < cols,
            "NeuroFrame::at: pixel out of range");
    return v_in[static_cast<std::size_t>(r * cols + c)];
  }

  /// Bounds-checked raw ADC code accessor, mirroring `at(r, c)`.
  std::int32_t& code_at(int r, int c) {
    require(r >= 0 && r < rows && c >= 0 && c < cols,
            "NeuroFrame::code_at: pixel out of range");
    return codes[static_cast<std::size_t>(r * cols + c)];
  }
  std::int32_t code_at(int r, int c) const {
    require(r >= 0 && r < rows && c >= 0 && c < cols,
            "NeuroFrame::code_at: pixel out of range");
    return codes[static_cast<std::size_t>(r * cols + c)];
  }
};

class NeuroChip {
 public:
  NeuroChip(NeuroChipConfig config, Rng rng);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }
  int channels() const { return config_.rows / config_.mux_factor; }
  Length sensor_area_side() const { return config_.rows * config_.pitch; }

  TimingBudget timing() const;

  /// Calibrates every pixel and every gain stage (rows in parallel,
  /// columns in sequence — one full sweep).
  void calibrate_all();

  /// Drops all pixel calibrations (ablation support).
  void decalibrate_all();

  /// Injects manufacturing defects: dead/stuck/railed pixels override the
  /// ADC code at the observation point (every pixel's analog model still
  /// runs, keeping its noise draws aligned with a fault-free die), and
  /// `channel_drift` multiplies each output channel's gain chain (size must
  /// be `channels()`; empty = no drift).
  void inject_faults(const faults::SiteFaultSet& set,
                     std::vector<double> channel_drift = {});

  /// Installs the defect map that `capture_frame` masks against: defective
  /// pixels are replaced by the mean of their good 4-neighbour codes.
  void set_defect_map(faults::DefectMap map) { defect_map_ = std::move(map); }
  const faults::DefectMap& defect_map() const { return defect_map_; }

  /// BIST sweep: captures one frame at 0 V and one at `v_probe` (uniform
  /// test stimulus) and classifies each pixel from its raw codes — railed
  /// pixels sit at an ADC rail in both frames, dead/stuck pixels don't move
  /// by the expected code delta. Requires a calibrated chip; the sweep
  /// bypasses any installed defect map so known defects re-test honestly.
  /// Errors with kNotCalibrated when the chip has never been calibrated
  /// (the sweep needs a settled signal path to classify against).
  Result<faults::DefectMap, dnachip::ChipError> self_test(
      Voltage v_probe = 1.0_mV);

  /// Captures one frame into `frame`, reusing its buffers (capacity
  /// retained — with a pooled frame the steady state allocates nothing).
  /// This is the single capture implementation: every other capture/record
  /// entry point routes through it. Scans columns in sequence and reads all
  /// rows of a column in parallel through the row amplifiers and 8:1 output
  /// multiplexers; advances droop by one frame period and re-calibrates
  /// when the recalibration interval elapses.
  void capture_frame_into(const SignalSource& source, double t,
                          NeuroFrame& frame);

  /// Convenience wrapper returning a freshly allocated frame.
  NeuroFrame capture_frame(const SignalSource& source, double t);

  /// Streams `n` consecutive frames starting at t0 into `sink`, one
  /// internal scratch frame reused throughout. The sink sees each frame in
  /// capture order; the referenced frame is invalid after `on_item`
  /// returns.
  void record_stream(const SignalSource& source, double t0, int n,
                     StreamSink<NeuroFrame>& sink);

  /// Batch wrapper: a collect-all sink over `record_stream`.
  std::vector<NeuroFrame> record(  // lint:allow-batch-return
      const SignalSource& source, double t0, int n);

  /// High-rate single-pixel mode: the sequencer parks on one pixel and
  /// streams it at the column-scan rate (frame_rate * cols samples/s,
  /// 256 kS/s for the paper's chip), trading spatial coverage for the
  /// temporal resolution needed to resolve full action-potential
  /// waveforms. Returns reconstructed input-referred voltages.
  std::vector<double> capture_pixel_highrate(int row, int col,
                                             const SignalSource& source,
                                             double t0, int n_samples);

  /// Statistics over pixel input-referred offsets (V) — calibration
  /// quality. Pair: (mean absolute, max absolute).
  std::pair<double, double> offset_stats() const;

  /// Nominal end-to-end transimpedance factor used for reconstruction:
  /// input volts -> output amps (gm * total gain).
  double nominal_conversion_gain() const;

  /// Serializes every evolving piece of chip state (layout version
  /// kChipStateVersion): the master RNG, the pixel bank's step counters,
  /// storage caps and flicker poles, gain-chain filter memories and
  /// calibration corrections, the calibration clock and the installed
  /// defect map. Frozen die properties (mismatch draws, the noise key,
  /// fault injection, channel drift) are reproduced by reconstructing the
  /// chip from the same config + seed before `load_state`.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

  const NeuroChipConfig& config() const { return config_; }

 private:
  void calibrate_pixels();
  std::int32_t apply_pixel_fault(std::size_t idx, std::int32_t code) const;
  void mask_frame(NeuroFrame& frame, double adc_lsb, double conv_gain) const;

  NeuroChipConfig config_;  // analyze:transient - frozen config
  Rng rng_;
  noise::MismatchSampler mismatch_;
  // SoA pixel engine: contiguous column-major planes (DESIGN.md §16).
  PixelBank bank_;
  // analyze:transient - injected fault config, re-applied by the fault plan
  faults::SiteFaultSet pixel_faults_{};
  bool has_pixel_faults_ = false;  // analyze:transient - fault config, re-applied
  // Gain multiplier per output channel.
  // analyze:transient - frozen die state, reproduced by reconstruction
  std::vector<double> channel_drift_;
  faults::DefectMap defect_map_{};
  // Row chains carry the on-chip stages (x100, x7); channel chains the
  // off-chip stages (x4, x2).
  std::vector<circuit::GainChain> row_chains_;
  std::vector<circuit::GainChain> channel_chains_;
  // Column-major scratch for batched signal evaluation:
  // signal_scratch_[col * rows + row]. Reused across frames.
  std::vector<double> signal_scratch_;  // analyze:transient - scratch buffer
  double gm_nominal_ = 0.0;  // analyze:transient - derived constant, recomputed at construction
  double last_calibration_t_ = 0.0;
  bool ever_calibrated_ = false;
};

}  // namespace biosense::neurochip
