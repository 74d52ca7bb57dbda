#include "neurochip/array.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

NeuroChip::NeuroChip(NeuroChipConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      mismatch_(config.pelgrom, rng_.fork()) {
  config.validate();

  // One master draw keys the pixel noise; two mismatch samples per pixel.
  bank_.build(config.pixel, config.rows, config.cols, mismatch_, rng_);

  row_chains_.reserve(static_cast<std::size_t>(config.rows));
  for (int r = 0; r < config.rows; ++r) {
    row_chains_.push_back(circuit::GainChain::on_chip(
        rng_.fork(), config.gain_sigma, config.gain_offset_sigma.value()));
  }
  const int n_channels = config.rows / config.mux_factor;
  channel_chains_.reserve(static_cast<std::size_t>(n_channels));
  for (int c = 0; c < n_channels; ++c) {
    // The off-chip stages see currents already amplified by x700; their
    // offsets scale accordingly.
    channel_chains_.push_back(circuit::GainChain::off_chip(
        rng_.fork(), config.gain_sigma,
        (config.gain_offset_sigma * 700.0).value()));
  }

  signal_scratch_.assign(bank_.size(), 0.0);
  channel_drift_.assign(static_cast<std::size_t>(n_channels), 1.0);
  gm_nominal_ = bank_.gm(0);
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
  for (auto& ch : row_chains_) ch.calibrate(i_ref);
  for (auto& ch : channel_chains_) ch.calibrate(i_ref * 700.0);
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
  frame.v_in.assign(static_cast<std::size_t>(rows * cols), 0.0);
  frame.codes.assign(static_cast<std::size_t>(rows * cols), 0);

  const double full_scale = config_.adc.full_scale.value();
  const double adc_lsb =
      2.0 * full_scale / static_cast<double>(1 << config_.adc.bits);
  const double conv_gain = nominal_conversion_gain();

  // Phase 1 — batched signal evaluation, one column per work item. The
  // scratch buffer is column-major so each call fills a contiguous span.
  // Both phase lambdas capture a single pointer to a stack context so the
  // std::function parallel_for builds stays inside its small-buffer
  // optimization — a wider capture heap-allocates once per frame.
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
  require(row_chains_.front().stages.size() == 2 &&
              channel_chains_.front().stages.size() == 2,
          "NeuroChip: expected two-stage gain chains");
  double row_decay[2];
  double ch_decay[2];
  row_chains_.front().decays(0.5 * tb.column_dwell, row_decay);
  channel_chains_.front().decays(0.5 * tb.mux_slot, ch_decay);
  const double droop_step = bank_.droop_dv(tb.frame_period);
  const double quiesce = config_.quiescence_threshold.value();

  // Phase 2 — the analog signal path, one output channel per work item.
  // A channel owns its mux group of rows: their plane runs (and noise
  // counters), their row chains, and the shared channel chain. Columns stay
  // in sequence inside a channel because the amplifiers' single-pole
  // settling state carries from column to column; every state object sees
  // the exact operation sequence of the serial scan, so frames are
  // bitwise-identical for any thread count. The planes are column-major, so
  // a channel's 8-row run per column is one contiguous cache line — no
  // false sharing between channel workers. Each run draws its active
  // pixels' noise in one batch, then walks the rows in mux order. Hold-time
  // droop is folded into this phase (each pixel is read exactly once, then
  // drooped; masking and recalibration below only run after the parallel
  // region).
  struct ChannelCtx {
    NeuroChip& chip;
    NeuroFrame& frame;
    double* scratch;
    int rows;
    int cols;
    int mux;
    double full_scale;
    double adc_lsb;
    double conv_gain;
    const PixelBank::FrameConsts& fc;
    const double* row_decay;
    const double* ch_decay;
    double droop_step;
    double quiesce;
  } ch_ctx{*this,    frame,   scratch,   rows,     cols,
           mux,      full_scale, adc_lsb, conv_gain, fc,
           row_decay, ch_decay, droop_step, quiesce};
  parallel_for(0, channels(), [&ch_ctx](std::int64_t ch) {
    NeuroChip& chip = ch_ctx.chip;
    PixelBank& bank = chip.bank_;
    const int row_begin = static_cast<int>(ch) * ch_ctx.mux;
    const int row_end = row_begin + ch_ctx.mux;
    auto& cc = chip.channel_chains_[static_cast<std::size_t>(ch)];
    const double drift = chip.channel_drift_[static_cast<std::size_t>(ch)];
    for (int col = 0; col < ch_ctx.cols; ++col) {
      for (int run = row_begin; run < row_end; run += PixelBank::kBatch) {
        const int run_end = std::min(run + PixelBank::kBatch, row_end);
        // Column-major planes: the pixel's plane slot is the same index
        // phase 1 wrote its signal to.
        const std::size_t run_pi =
            static_cast<std::size_t>(col) * static_cast<std::size_t>(ch_ctx.rows) +
            static_cast<std::size_t>(run);
        // Sparse path: a quiescent pixel (source signal below threshold)
        // reports its cached zero-signal current and draws no noise; its
        // flicker poles catch up on its next active read. The decision
        // depends only on phase-1 output, which is identical for every
        // thread count — see DESIGN.md §16.
        std::size_t active[PixelBank::kBatch];
        double noise[PixelBank::kBatch];
        int n_active = 0;
        for (int r = 0; r < run_end - run; ++r) {
          const std::size_t pi = run_pi + static_cast<std::size_t>(r);
          const double v_sig = ch_ctx.scratch[pi];
          if (ch_ctx.quiesce > 0.0 && std::abs(v_sig) < ch_ctx.quiesce) {
            bank.skip(pi);
          } else {
            active[n_active++] = pi;
          }
        }
        if (n_active > 0) bank.draw_noise(active, n_active, ch_ctx.fc, noise);
        int next_active = 0;
        for (int row = run; row < run_end; ++row) {
          const std::size_t pi = run_pi + static_cast<std::size_t>(row - run);
          double i_diff = 0.0;
          if (next_active < n_active && active[next_active] == pi) {
            i_diff = bank.front_end(pi, ch_ctx.scratch[pi], noise[next_active]);
            ++next_active;
          } else {
            i_diff = bank.quiet_current(pi);
          }
          // Row amplifier settles within the column dwell; two half-dwell
          // steps capture the residual first-order settling.
          auto& rc = chip.row_chains_[static_cast<std::size_t>(row)];
          rc.step_with(i_diff, ch_ctx.row_decay);
          const double i_row = rc.step_with(i_diff, ch_ctx.row_decay);

          // The channel chain serves mux_factor rows in sequence within the
          // column dwell (one mux slot each). Gain-chain drift scales the
          // delivered current.
          cc.step_with(i_row, ch_ctx.ch_decay);
          const double i_out = cc.step_with(i_row, ch_ctx.ch_decay) * drift;

          // Off-chip ADC.
          const double clipped =
              std::clamp(i_out, -ch_ctx.full_scale, ch_ctx.full_scale);
          auto code = static_cast<std::int32_t>(
              std::lround(clipped / ch_ctx.adc_lsb));
          const std::size_t idx =
              static_cast<std::size_t>(row * ch_ctx.cols + col);
          if (chip.has_pixel_faults_) code = chip.apply_pixel_fault(idx, code);
          ch_ctx.frame.codes[idx] = code;
          ch_ctx.frame.v_in[idx] =
              static_cast<double>(code) * ch_ctx.adc_lsb / ch_ctx.conv_gain;

          // Hold-time droop for this frame.
          bank.droop(pi, ch_ctx.droop_step);
        }
      }
    }
  });

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
  w.u32(static_cast<std::uint32_t>(row_chains_.size()));
  for (const circuit::GainChain& c : row_chains_) c.save_state(w);
  w.u32(static_cast<std::uint32_t>(channel_chains_.size()));
  for (const circuit::GainChain& c : channel_chains_) c.save_state(w);
  w.f64(last_calibration_t_);
  w.b(ever_calibrated_);
  defect_map_.save_state(w);
}

void NeuroChip::load_state(snapshot::StateReader& r) {
  r.rng(rng_);
  mismatch_.load_state(r);
  bank_.load_state(r);
  if (r.u32() != row_chains_.size()) {
    r.fail();
    return;
  }
  for (circuit::GainChain& c : row_chains_) c.load_state(r);
  if (r.u32() != channel_chains_.size()) {
    r.fail();
    return;
  }
  for (circuit::GainChain& c : channel_chains_) c.load_state(r);
  last_calibration_t_ = r.f64();
  ever_calibrated_ = r.b();
  defect_map_.load_state(r);
}

}  // namespace biosense::neurochip
