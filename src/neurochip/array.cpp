#include "neurochip/array.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// GCC on x86-64 also compiles the phase-2 work item for x86-64-v3 and
// x86-64-v4; other compilers and targets build its baseline entry alone.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define BIOSENSE_CAPTURE_X86_LEVELS 1
#endif

namespace biosense::neurochip {

void NeuroChipConfig::validate() const {
  require(rows > 0 && cols > 0, "NeuroChip: empty array");
  require(mux_factor > 0 && rows % mux_factor == 0,
          "NeuroChip: rows must be a multiple of the mux factor");
  require(frame_rate > Frequency(0.0),
          "NeuroChip: frame rate must be positive");
  require(pitch > Length(0.0), "NeuroChip: pixel pitch must be positive");
  require(adc.bits >= 4 && adc.bits <= 24, "NeuroChip: ADC bits out of range");
  require(adc.full_scale > Current(0.0),
          "NeuroChip: ADC full scale must be positive");
  require(gain_sigma >= 0.0 && gain_offset_sigma >= Current(0.0),
          "NeuroChip: gain spreads must be non-negative");
  require(recalibration_interval > Time(0.0),
          "NeuroChip: recalibration interval must be positive");
  require(quiescence_threshold >= Voltage(0.0),
          "NeuroChip: quiescence threshold must be non-negative");
}

namespace detail {

/// One frame's phase-2 context, as NeuroChip::capture_frame_into builds it
/// for the frame's channel-group work items.
struct CaptureWork {
  NeuroChip& chip;
  NeuroFrame& frame;
  double* scratch;
  int rows;
  int cols;
  int mux_factor;
  int n_ch;
  int group;
  double full_scale;
  double adc_lsb;
  double conv_gain;
  const PixelBank::FrameConsts& fc;
  const double* row_decay;
  const double* ch_decay;
  double droop_step;
  double quiesce;

  /// The work item for channel group g, the body every entry below
  /// compiles.
  void capture_channel_group(std::int64_t g) const;
};

// A group is ceil(channels / threads) contiguous output channels. A
// channel owns its mux group of rows: their plane runs (and noise
// counters), their row chains, and its channel chain. Columns stay in
// sequence inside a group because the amplifiers' single-pole settling
// state carries from column to column. Per column, each channel's 8-row
// run (one cache line of the column-major planes) draws its active pixels'
// noise in one batch and evaluates their front ends; hold-time droop
// follows each read (each pixel is read exactly once; masking and
// recalibration run after the parallel region). Then the group's row
// chains step as SIMD lanes, one lane per row, and each mux slot steps the
// group's channel chains as lanes, one per channel, through drift and the
// ADC. Every lane performs the scalar stage_update, so frames are
// bitwise-identical for any thread count and grouping. A group keeps its
// lanes' pole memories in its own cache-line-aligned block for the frame,
// so no two workers write one line.
inline void CaptureWork::capture_channel_group(std::int64_t g) const {
  PixelBank& bank = chip.bank_;
  const int c0 = static_cast<int>(g) * group;
  const int c1 = std::min(c0 + group, n_ch);
  const auto n_lanes = static_cast<std::size_t>(c1 - c0);
  const auto mux = static_cast<std::size_t>(mux_factor);
  const std::size_t n_rows = mux * n_lanes;
  const auto first_ch = static_cast<std::size_t>(c0);
  const std::size_t first_row = first_ch * mux;
  // The block: front-end currents, row-chain outputs and the two row
  // stages' pole memories in row order, then the two channel stages' pole
  // memories and one slot's codes in channel order.
  double* i_diff = chip.lane_scratch_.data() + first_ch * chip.lane_stride_;
  double* i_row = i_diff + n_rows;
  double* row_mem = i_row + n_rows;
  double* ch_mem = row_mem + 2 * n_rows;
  double* codes = ch_mem + 2 * n_lanes;
  circuit::GainBank& row_bank = chip.row_chains_;
  circuit::GainBank& ch_bank = chip.channel_chains_;
  for (std::size_t k = 0; k < 2; ++k) {
    std::copy_n(row_bank.i_out(k) + first_row, n_rows, row_mem + k * n_rows);
    std::copy_n(ch_bank.i_out(k) + first_ch, n_lanes, ch_mem + k * n_lanes);
  }
  const auto r0 = row_bank.lanes(0, first_row, row_mem, row_decay[0]);
  const auto r1 = row_bank.lanes(1, first_row, row_mem + n_rows, row_decay[1]);
  const auto k0 = ch_bank.lanes(0, first_ch, ch_mem, ch_decay[0]);
  const auto k1 = ch_bank.lanes(1, first_ch, ch_mem + n_lanes, ch_decay[1]);
  const double* drift = chip.channel_drift_.data() + first_ch;

  for (int col = 0; col < cols; ++col) {
    for (int ch = c0; ch < c1; ++ch) {
      const int row_begin = ch * mux_factor;
      const int row_end = row_begin + mux_factor;
      for (int run = row_begin; run < row_end; run += PixelBank::kBatch) {
        const int run_end = std::min(run + PixelBank::kBatch, row_end);
        // Column-major planes: the pixel's plane slot is the same index
        // phase 1 wrote its signal to.
        const std::size_t run_pi =
            static_cast<std::size_t>(col) * static_cast<std::size_t>(rows) +
            static_cast<std::size_t>(run);
        // Sparse path: a quiescent pixel (source signal below threshold)
        // reports its cached zero-signal current and draws no noise; its
        // flicker poles catch up on its next active read. The decision
        // depends only on phase-1 output, which is identical for every
        // thread count — see DESIGN.md §16. The run's active pixels are
        // gathered into one block: their noise is one draw_noise batch
        // and their front ends one run of lanes, dense or sparse alike.
        std::size_t active[PixelBank::kBatch];
        double v_sig[PixelBank::kBatch];
        double noise[PixelBank::kBatch];
        double i_active[PixelBank::kBatch];
        int n_active = 0;
        for (int r = 0; r < run_end - run; ++r) {
          const std::size_t pi = run_pi + static_cast<std::size_t>(r);
          const double v = scratch[pi];
          if (quiesce > 0.0 && std::abs(v) < quiesce) {
            bank.skip(pi);
          } else {
            v_sig[n_active] = v;
            active[n_active++] = pi;
          }
        }
        if (n_active > 0) {
          bank.draw_noise(active, n_active, fc, noise);
          bank.front_end(active, n_active, v_sig, noise, i_active);
        }
        int next_active = 0;
        for (int row = run; row < run_end; ++row) {
          const std::size_t pi = run_pi + static_cast<std::size_t>(row - run);
          double i_pixel = 0.0;
          if (next_active < n_active && active[next_active] == pi) {
            i_pixel = i_active[next_active++];
          } else {
            i_pixel = bank.quiet_current(pi);
          }
          i_diff[static_cast<std::size_t>(row) - first_row] = i_pixel;
          // Hold-time droop for this frame.
          bank.droop(pi, droop_step);
        }
      }
    }

    // Row amplifiers settle within the column dwell; two half-dwell
    // steps capture the residual first-order settling.
    BIOSENSE_LANE_LOOP
    for (std::size_t j = 0; j < n_rows; ++j) {
      r1.step(j, r0.step(j, i_diff[j]));
      i_row[j] = r1.step(j, r0.step(j, i_diff[j]));
    }

    // The channel chain serves mux_factor rows in sequence within the
    // column dwell (one mux slot each). Gain-chain drift scales the
    // delivered current.
    for (std::size_t s = 0; s < mux; ++s) {
      BIOSENSE_LANE_LOOP
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const double x = i_row[l * mux + s];
        k1.step(l, k0.step(l, x));
        const double i_out = k1.step(l, k0.step(l, x)) * drift[l];
        // Off-chip ADC. A NaN current (only a non-finite source makes
        // one) reads code 0, what std::lround's result narrows to on
        // x86-64.
        double clipped = std::clamp(i_out, -full_scale, full_scale);
        clipped = clipped == clipped ? clipped : 0.0;
        codes[l] = round_half_away(clipped / adc_lsb);
      }
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const std::size_t row = first_row + l * mux + s;
        const std::size_t idx = row * static_cast<std::size_t>(cols) +
                                static_cast<std::size_t>(col);
        auto code = static_cast<std::int32_t>(codes[l]);
        if (chip.has_pixel_faults_) code = chip.apply_pixel_fault(idx, code);
        frame.codes[idx] = code;
        frame.v_in[idx] = static_cast<double>(code) * adc_lsb / conv_gain;
      }
    }
  }

  for (std::size_t k = 0; k < 2; ++k) {
    std::copy_n(row_mem + k * n_rows, n_rows, row_bank.i_out(k) + first_row);
    std::copy_n(ch_mem + k * n_lanes, n_lanes, ch_bank.i_out(k) + first_ch);
  }
}

}  // namespace detail

namespace {

// The entries: the work item once per x86-64 level, from the one body.
// flatten inlines every call in the body (the noise batch, the front-end
// lanes, the gain lanes) into each entry, so the target attribute decides
// the width of all of them; an entry that called an out-of-line baseline
// kernel would lose it, which ci.sh's `vectorized` gate catches. Explicit
// entries behind a pointer, not target_clones: a target_clones ifunc
// resolver runs before ThreadSanitizer's runtime is up, and ifunc gives a
// test no way to run the narrower entries on a wider host.
[[gnu::flatten]] void capture_baseline(const detail::CaptureWork& w,
                                       std::int64_t g) {
  w.capture_channel_group(g);
}

#ifdef BIOSENSE_CAPTURE_X86_LEVELS
[[gnu::target("arch=x86-64-v3"), gnu::flatten]] void capture_x86_64_v3(
    const detail::CaptureWork& w, std::int64_t g) {
  w.capture_channel_group(g);
}

[[gnu::target("arch=x86-64-v4"), gnu::flatten]] void capture_x86_64_v4(
    const detail::CaptureWork& w, std::int64_t g) {
  w.capture_channel_group(g);
}
#endif

detail::CaptureKernel capture_entry(detail::CaptureLevel level) {
  switch (level) {
#ifdef BIOSENSE_CAPTURE_X86_LEVELS
    case detail::CaptureLevel::kX86_64_V3:
      return capture_x86_64_v3;
    case detail::CaptureLevel::kX86_64_V4:
      return capture_x86_64_v4;
#endif
    default:
      return capture_baseline;
  }
}

/// The widest level the host runs.
detail::CaptureLevel host_capture_level() {
  for (const auto level : {detail::CaptureLevel::kX86_64_V4,
                           detail::CaptureLevel::kX86_64_V3}) {
    if (detail::capture_level_supported(level)) return level;
  }
  return detail::CaptureLevel::kBaseline;
}

}  // namespace

bool detail::capture_level_supported(CaptureLevel level) {
  if (level == CaptureLevel::kBaseline) return true;
#ifdef BIOSENSE_CAPTURE_X86_LEVELS
  __builtin_cpu_init();
  return level == CaptureLevel::kX86_64_V3
             ? __builtin_cpu_supports("x86-64-v3")
             : __builtin_cpu_supports("x86-64-v4");
#else
  return false;
#endif
}

void detail::force_capture_level(NeuroChip& chip, CaptureLevel level) {
  require(capture_level_supported(level),
          "NeuroChip: the host cannot run this capture level");
  chip.capture_kernel_ = capture_entry(level);
}

NeuroChip::NeuroChip(NeuroChipConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      mismatch_(config.pelgrom, rng_.fork()) {
  config.validate();

  // One master draw keys the pixel noise; two mismatch samples per pixel.
  bank_.build(config.pixel, config.rows, config.cols, mismatch_, rng_);

  // Each chain's die constants are drawn by constructing it, in row then
  // channel order, and copied into its bank lane.
  for (int r = 0; r < config.rows; ++r) {
    const circuit::GainChain chain = circuit::GainChain::on_chip(
        rng_.fork(), config.gain_sigma, config.gain_offset_sigma.value());
    if (r == 0) row_chains_.reset(chain, static_cast<std::size_t>(config.rows));
    row_chains_.set(static_cast<std::size_t>(r), chain);
  }
  const int n_channels = channels();
  for (int c = 0; c < n_channels; ++c) {
    // The off-chip stages see currents already amplified by x700; their
    // offsets scale accordingly.
    const circuit::GainChain chain = circuit::GainChain::off_chip(
        rng_.fork(), config.gain_sigma,
        (config.gain_offset_sigma * 700.0).value());
    if (c == 0) {
      channel_chains_.reset(chain, static_cast<std::size_t>(n_channels));
    }
    channel_chains_.set(static_cast<std::size_t>(c), chain);
  }
  require(row_chains_.stages.size() == 2 &&
              channel_chains_.stages.size() == 2,
          "NeuroChip: expected two-stage gain chains");

  // A channel's share of the phase-2 block: its mux rows' front-end
  // currents, row-chain outputs and two row-stage pole memories, two
  // channel-stage pole memories and one code, rounded up to whole cache
  // lines.
  const auto per_channel = static_cast<std::size_t>(4 * config.mux_factor + 3);
  constexpr std::size_t kLine = kCacheLineBytes / sizeof(double);
  lane_stride_ = (per_channel + kLine - 1) / kLine * kLine;
  lane_scratch_.assign(lane_stride_ * static_cast<std::size_t>(n_channels),
                       0.0);

  signal_scratch_.assign(bank_.size(), 0.0);
  channel_drift_.assign(static_cast<std::size_t>(n_channels), 1.0);
  gm_nominal_ = bank_.gm(0);
  capture_kernel_ = capture_entry(host_capture_level());
}

void NeuroChip::inject_faults(const faults::SiteFaultSet& set,
                              std::vector<double> channel_drift) {
  require(set.rows == config_.rows && set.cols == config_.cols,
          "NeuroChip: fault set dimensions mismatch");
  require(set.type.size() == bank_.size() &&
              set.value.size() == set.type.size(),
          "NeuroChip: fault set is incomplete");
  pixel_faults_ = set;
  has_pixel_faults_ = !set.empty();
  if (!channel_drift.empty()) {
    require(channel_drift.size() == static_cast<std::size_t>(channels()),
            "NeuroChip: need one drift multiplier per output channel");
    channel_drift_ = std::move(channel_drift);
  }
}

std::int32_t NeuroChip::apply_pixel_fault(std::size_t idx,
                                          std::int32_t code) const {
  const auto full_code = static_cast<std::int32_t>(1 << (config_.adc.bits - 1));
  switch (pixel_faults_.type[idx]) {
    case faults::SiteFaultType::kDead:
      BIOSENSE_COUNT("faults.neuro_pixel_overrides", 1);
      return 0;
    case faults::SiteFaultType::kStuck:
      BIOSENSE_COUNT("faults.neuro_pixel_overrides", 1);
      return static_cast<std::int32_t>(
          std::lround(pixel_faults_.value[idx] * full_code));
    case faults::SiteFaultType::kRailedHigh:
      BIOSENSE_COUNT("faults.neuro_pixel_overrides", 1);
      return full_code;
    case faults::SiteFaultType::kRailedLow:
      BIOSENSE_COUNT("faults.neuro_pixel_overrides", 1);
      return -full_code;
    default:
      return code;
  }
}

void NeuroChip::mask_frame(NeuroFrame& frame, double adc_lsb,
                           double conv_gain) const {
  require(defect_map_.rows() == frame.rows && defect_map_.cols() == frame.cols,
          "NeuroChip: defect map dimensions mismatch");
  // Serial masking pass over the (typically sparse) defect list. Reads only
  // good-neighbour codes, so in-place writes cannot feed back.
  for (const auto& [r, c] : defect_map_.defects()) {
    std::int64_t sum = 0;
    int n = 0;
    const int nbr[4][2] = {{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}};
    for (const auto& rc : nbr) {
      if (rc[0] < 0 || rc[0] >= frame.rows || rc[1] < 0 ||
          rc[1] >= frame.cols) {
        continue;
      }
      if (!defect_map_.good(rc[0], rc[1])) continue;
      sum += frame.codes[static_cast<std::size_t>(rc[0] * frame.cols + rc[1])];
      ++n;
    }
    const auto code =
        n > 0 ? static_cast<std::int32_t>(std::lround(
                    static_cast<double>(sum) / static_cast<double>(n)))
              : 0;
    const auto idx = static_cast<std::size_t>(r * frame.cols + c);
    frame.codes[idx] = code;
    frame.v_in[idx] = static_cast<double>(code) * adc_lsb / conv_gain;
    ++frame.masked;
  }
}

TimingBudget NeuroChip::timing() const {
  TimingBudget t;
  t.frame_period = (1.0 / config_.frame_rate).value();  // 1/Hz -> s
  t.column_dwell = t.frame_period / config_.cols;
  t.mux_slot = t.column_dwell / config_.mux_factor;
  t.pixel_rate_total =
      config_.frame_rate.value() * config_.rows * config_.cols;
  t.channel_rate = t.pixel_rate_total / channels();
  const double tau_row = 1.0 / (2.0 * constants::kPi * (4.0_MHz).value());
  const double tau_drv = 1.0 / (2.0 * constants::kPi * (32.0_MHz).value());
  t.row_amp_settle_taus = t.column_dwell / tau_row;
  t.driver_settle_taus = t.mux_slot / tau_drv;
  return t;
}

void NeuroChip::calibrate_pixels() {
  // Each pixel's calibration draws only from its own counter, so the sweep
  // parallelizes without affecting results.
  PixelBank* bank = &bank_;
  parallel_for(
      0, static_cast<std::int64_t>(bank_.size()),
      [bank](std::int64_t i) {
        bank->calibrate(static_cast<std::size_t>(i));
      },
      256);
}

void NeuroChip::calibrate_all() {
  BIOSENSE_SPAN("neurochip.calibrate_all");
  BIOSENSE_COUNT("neurochip.calibrations", 1);
  calibrate_pixels();
  // Reference current for gain-stage calibration: a mid-scale pixel signal
  // (gm * 1 mV has dimension current).
  const double i_ref = (Conductance(gm_nominal_) * 1.0_mV).value();
  row_chains_.calibrate(i_ref);
  channel_chains_.calibrate(i_ref * 700.0);
  ever_calibrated_ = true;
}

void NeuroChip::decalibrate_all() {
  for (std::size_t i = 0; i < bank_.size(); ++i) bank_.decalibrate(i);
  ever_calibrated_ = false;
}

double NeuroChip::nominal_conversion_gain() const {
  return gm_nominal_ * 100.0 * 7.0 * 4.0 * 2.0;
}

void NeuroChip::capture_frame_into(const SignalSource& source, double t,
                                   NeuroFrame& frame) {
  BIOSENSE_SPAN("neurochip.capture_frame");
  const TimingBudget tb = timing();
  const int rows = config_.rows;
  const int cols = config_.cols;
  const int mux = config_.mux_factor;
  frame.rows = rows;
  frame.cols = cols;
  frame.t = t;
  frame.masked = 0;
  // Sized, not cleared: phase 2 writes every entry, since each channel
  // group covers every column and mux slot and rows is a whole number of
  // mux groups (validated at construction).
  frame.v_in.resize(static_cast<std::size_t>(rows * cols));
  frame.codes.resize(static_cast<std::size_t>(rows * cols));

  const double full_scale = config_.adc.full_scale.value();
  const double adc_lsb =
      2.0 * full_scale / static_cast<double>(1 << config_.adc.bits);
  const double conv_gain = nominal_conversion_gain();

  // Phase 1 — batched signal evaluation, one column per work item. The
  // scratch buffer is column-major so each call fills a contiguous span.
  // Both phase lambdas capture at most two pointers (a stack context, and
  // in phase 2 the entry) so the std::function parallel_for builds stays
  // inside its small-buffer optimization — a wider capture heap-allocates
  // once per frame.
  double* scratch = signal_scratch_.data();
  struct ColumnCtx {
    const SignalSource& source;
    double* scratch;
    int rows;
    double t;
    double column_dwell;
  } col_ctx{source, scratch, rows, t, tb.column_dwell};
  // Grain 4: a single column's evaluation is too small a work item once the
  // SoA kernel dominates the frame; batching columns keeps the dynamic
  // chunk-claim overhead out of the scaling profile.
  parallel_for(
      0, cols,
      [&col_ctx](std::int64_t col) {
        col_ctx.source.eval_column(
            static_cast<int>(col), col_ctx.t + col * col_ctx.column_dwell,
            std::span<double>(col_ctx.scratch + col * col_ctx.rows,
                              static_cast<std::size_t>(col_ctx.rows)));
      },
      4);

  // Per-frame invariants hoisted out of the pixel loop: the per-dt noise
  // constants (white sigma + flicker pole decays), the gain stages'
  // single-pole decay factors (identical across chains of a kind — decay
  // depends only on bandwidth), the per-frame droop step, and the sparse
  // threshold.
  const PixelBank::FrameConsts& fc = bank_.prepare(tb.column_dwell);
  double row_decay[2];
  double ch_decay[2];
  row_chains_.decays(0.5 * tb.column_dwell, row_decay);
  channel_chains_.decays(0.5 * tb.mux_slot, ch_decay);
  const double droop_step = bank_.droop_dv(tb.frame_period);
  const double quiesce = config_.quiescence_threshold.value();

  // Phase 2 — the analog signal path, one group of ceil(channels /
  // threads) contiguous output channels per work item
  // (capture_channel_group), through the entry chosen at construction.
  const int n_ch = channels();
  const int threads = max_threads();
  const int group = (n_ch + threads - 1) / threads;
  const detail::CaptureWork work{*this,      frame,      scratch,  rows,
                                 cols,       mux,        n_ch,     group,
                                 full_scale, adc_lsb,    conv_gain, fc,
                                 row_decay,  ch_decay,   droop_step, quiesce};
  const detail::CaptureKernel kernel = capture_kernel_;
  parallel_for(0, (n_ch + group - 1) / group,
               [&work, kernel](std::int64_t g) { kernel(work, g); });

  // Defect-map masking: replace flagged pixels by their good neighbours'
  // mean before anything downstream sees the frame.
  if (!defect_map_.empty()) mask_frame(frame, adc_lsb, conv_gain);

  // Periodic recalibration (after the parallel phase; per-pixel state only).
  const double frame_period = tb.frame_period;
  if (ever_calibrated_ && t + frame_period - last_calibration_t_ >=
                              config_.recalibration_interval.value()) {
    BIOSENSE_COUNT("neurochip.recalibrations", 1);
    calibrate_pixels();
    last_calibration_t_ = t + frame_period;
  }
  BIOSENSE_COUNT("neurochip.frames", 1);
  BIOSENSE_COUNT("neurochip.masked_pixels", frame.masked);
}

NeuroFrame NeuroChip::capture_frame(const SignalSource& source, double t) {
  NeuroFrame frame;
  capture_frame_into(source, t, frame);
  return frame;
}

Result<faults::DefectMap, dnachip::ChipError> NeuroChip::self_test(
    Voltage v_probe) {
  using R = Result<faults::DefectMap, dnachip::ChipError>;
  BIOSENSE_SPAN("neurochip.self_test");
  if (!ever_calibrated_) return R::err(dnachip::ChipError::kNotCalibrated);
  require(v_probe > Voltage(0.0),
          "NeuroChip: self-test probe must be positive");

  // Run the sweep without masking: an installed defect map must not hide
  // the very pixels the sweep is supposed to re-test.
  faults::DefectMap stashed = std::move(defect_map_);
  defect_map_ = faults::DefectMap{};
  const NeuroFrame base = capture_frame(ConstantSource(0.0), 0.0);
  const NeuroFrame step = capture_frame(ConstantSource(v_probe.value()), 0.0);
  defect_map_ = std::move(stashed);

  // The healthy reference is the array's own median |delta|: it folds in
  // whatever the real signal path delivers (amplifier settling, AC-coupling
  // droop, channel gain drift) instead of trusting the nominal conversion
  // gain, and stays valid as long as defects are a minority. Dead and stuck
  // pixels don't move at all between the two probe levels, so a quarter of
  // the median (floored at 2 codes) separates them cleanly even from
  // healthy pixels deep in the gain-mismatch tail.
  const std::size_t n = base.codes.size();
  // Per-call allocations below are intentional (lint: cold diagnostic path,
  // not a per-frame loop) — self_test runs once per session.
  std::vector<double> deltas(n);
  for (std::size_t i = 0; i < n; ++i) {
    deltas[i] = std::abs(static_cast<double>(step.codes[i]) -
                         static_cast<double>(base.codes[i]));
  }
  std::vector<double> sorted = deltas;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median_delta = sorted[sorted.size() / 2];
  const double dead_threshold = std::max(2.0, 0.25 * median_delta);
  const auto full_code =
      static_cast<std::int32_t>(1 << (config_.adc.bits - 1));

  faults::DefectMap map(config_.rows, config_.cols);
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const std::int32_t c0 = base.code_at(r, c);
      const std::int32_t c1 = step.code_at(r, c);
      if (std::abs(c0) >= full_code - 1 && std::abs(c1) >= full_code - 1) {
        map.mark(r, c, faults::DefectType::kRailed);
        continue;
      }
      if (deltas[static_cast<std::size_t>(r * config_.cols + c)] <
          dead_threshold) {
        map.mark(r, c,
                 c0 == 0 && c1 == 0 ? faults::DefectType::kDead
                                    : faults::DefectType::kStuck);
      }
    }
  }
  return map;
}

void NeuroChip::record_stream(const SignalSource& source, double t0, int n,
                              StreamSink<NeuroFrame>& sink) {
  NeuroFrame scratch;
  const double period = (1.0 / config_.frame_rate).value();
  for (int k = 0; k < n; ++k) {
    capture_frame_into(source, t0 + k * period, scratch);
    sink.on_item(scratch);
  }
  sink.on_end();
}

std::vector<NeuroFrame> NeuroChip::record(const SignalSource& source, double t0,
                                          int n) {
  // Batch wrapper: collect-all sink over the streaming impl.
  std::vector<NeuroFrame> frames;
  frames.reserve(static_cast<std::size_t>(n));
  FunctionSink<NeuroFrame> collect(
      [&frames](const NeuroFrame& f) { frames.push_back(f); });
  record_stream(source, t0, n, collect);
  return frames;
}

std::pair<double, double> NeuroChip::offset_stats() const {
  // Row-major accumulation (the old pixel-vector order) so the floating
  // sum is unchanged.
  double sum = 0.0;
  double mx = 0.0;
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const double o =
          std::abs(bank_.input_referred_offset(bank_.plane_index(r, c)));
      sum += o;
      mx = std::max(mx, o);
    }
  }
  return {sum / static_cast<double>(bank_.size()), mx};
}

void NeuroChip::save_state(snapshot::StateWriter& w) const {
  w.rng(rng_);
  mismatch_.save_state(w);
  bank_.save_state(w);
  // Chains in row and channel order, GainChain::save_state's layout.
  w.u32(static_cast<std::uint32_t>(rows()));
  for (int r = 0; r < rows(); ++r) {
    row_chains_.save_state(w, static_cast<std::size_t>(r));
  }
  w.u32(static_cast<std::uint32_t>(channels()));
  for (int c = 0; c < channels(); ++c) {
    channel_chains_.save_state(w, static_cast<std::size_t>(c));
  }
  w.f64(last_calibration_t_);
  w.b(ever_calibrated_);
  defect_map_.save_state(w);
}

void NeuroChip::load_state(snapshot::StateReader& r) {
  r.rng(rng_);
  mismatch_.load_state(r);
  bank_.load_state(r);
  if (r.u32() != static_cast<std::uint32_t>(rows())) {
    r.fail();
    return;
  }
  for (int row = 0; row < rows(); ++row) {
    row_chains_.load_state(r, static_cast<std::size_t>(row));
  }
  if (r.u32() != static_cast<std::uint32_t>(channels())) {
    r.fail();
    return;
  }
  for (int c = 0; c < channels(); ++c) {
    channel_chains_.load_state(r, static_cast<std::size_t>(c));
  }
  last_calibration_t_ = r.f64();
  ever_calibrated_ = r.b();
  defect_map_.load_state(r);
}

}  // namespace biosense::neurochip
