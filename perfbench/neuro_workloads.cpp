// neuro_dense / neuro_sparse: the paper's 128x128 neural chip recording a
// seeded culture, one op per frame.
//
// The culture (default config: 30 neurons, 10-100 um, 8 Hz) pre-generates
// 1 s of activity; RecordingSession prepares it in fixed windows and each
// window streams through core::ChipSession::run over the lossless link
// into a checking sink. The 1 s of activity replays in a loop, so the
// workload stays stationary however many frames a run gets through; the
// chip's own clock keeps running (its recalibration follows frame time).
// neuro_sparse differs only in the chip's quiescence threshold (20 uV,
// below the paper's smallest signal of 100 uV).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "core/session_options.hpp"
#include "core/wire.hpp"
#include "neuro/culture.hpp"
#include "neurochip/recording.hpp"

namespace perfbench {
namespace {

using namespace biosense;
using neurochip::NeuroFrame;

// Frames per prepared window. It divides the culture's 2000-frame cycle
// and the chip's 500-frame recalibration interval, so recalibrations fall
// on window boundaries. The frame after each prepare waits for it; at 50
// frames those stalls are 2 % of frames, so the p99 frame interval lands
// among them instead of on the edge between them and host hiccups.
constexpr int kWindow = 50;
constexpr int kSetupRepeats = 5;        // set-ups timed per run
constexpr double kQuiescenceV = 20e-6;  // neuro_sparse threshold
// Ground-truth tracking. Calibration leaves each pixel a residual offset of
// up to a few mV and gm mismatch a gain error of tens of percent, so each
// window fits its spike-bearing pixels (peak >= kSpikeV) as
// v_in = offset_pixel + gain * signal, pooled over the pixels, and requires
// the gain to lie in [kGainLo, kGainHi]. The fit skips a window's first
// kFitFrom frames: the chip recalibrates every 500 frames of its own clock,
// which lands there and steps every pixel's offset.
constexpr double kSpikeV = 1e-3;
constexpr int kFitFrom = 10;
constexpr double kGainLo = 0.4;
constexpr double kGainHi = 2.5;
constexpr std::size_t kSpanCapacity = 200000;

struct Rig {
  std::unique_ptr<neuro::NeuronCulture> culture;
  core::NeuroSession neuro;
  std::unique_ptr<neurochip::RecordingSession> recording;
  double period = 0.0;  // frame period, s
  int cycle = 0;        // frames of pre-generated culture activity
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed, bool sparse) {
  auto rig = std::make_unique<Rig>();
  rig->culture = std::make_unique<neuro::NeuronCulture>(
      neuro::CultureConfig{}, Rng(derive_seed(seed, 1)));
  neurochip::NeuroChipConfig cfg;
  if (sparse) cfg.quiescence_threshold = Voltage(kQuiescenceV);
  core::SessionOptions opts;
  opts.kind(core::ChipKind::kNeuro)
      .neuro_config(cfg)
      .chip_seed(derive_seed(seed, 2))
      .link_seed(derive_seed(seed, 3))
      .label("");
  rig->neuro = opts.build_neuro();
  rig->recording = std::make_unique<neurochip::RecordingSession>(
      *rig->culture, *rig->neuro.chip);
  const auto& chip_cfg = rig->neuro.chip->config();
  rig->period = (1.0 / chip_cfg.frame_rate).value();
  rig->cycle = static_cast<int>(std::lround(rig->culture->config().duration *
                                            chip_cfg.frame_rate.value()));
  if (rig->cycle % kWindow != 0) {
    throw std::runtime_error("culture cycle is not a whole number of windows");
  }
  return rig;
}

/// Checks each delivered frame against the inputs the benchmark fed and
/// times the interval between consecutive deliveries.
class CheckSink final : public StreamSink<NeuroFrame> {
 public:
  CheckSink(int rows, int cols, int adc_bits)
      : rows_(rows), cols_(cols), code_limit_(1 << (adc_bits - 1)) {}

  /// Call after each RecordingSession::prepare, before the window's frames.
  void begin_window(const neurochip::RecordingSession& rec, double t0,
                    double period) {
    t0_ = t0;
    period_ = period;
    k_ = 0;
    frames_bad_ = 0;
    fits_.clear();
    for (const int key : rec.active_keys()) {
      const auto& truth = rec.ground_truth(key / cols_, key % cols_);
      double peak = 0.0;
      for (std::size_t k = kFitFrom; k < truth.size(); ++k) {
        peak = std::max(peak, std::abs(truth[k]));
      }
      if (peak >= kSpikeV) {
        fits_.push_back({static_cast<std::size_t>(key), truth.data()});
      }
    }
  }
  /// Call after the window's last frame. Returns the window's failed
  /// frames: all of them when its spike-bearing pixels do not track their
  /// ground truth, else those that failed a per-frame check.
  std::uint64_t end_window() {
    if (k_ != kWindow) return static_cast<std::uint64_t>(kWindow);
    const double n = static_cast<double>(kWindow - kFitFrom);
    double cov = 0.0;
    double var = 0.0;
    for (const Fit& fit : fits_) {
      cov += fit.svt - fit.sv * fit.st / n;
      var += fit.stt - fit.st * fit.st / n;
    }
    pixels_fitted_ += fits_.size();
    if (fits_.empty()) return frames_bad_;
    const double gain = cov / var;
    min_gain_ = std::min(min_gain_, gain);
    max_gain_ = std::max(max_gain_, gain);
    return gain >= kGainLo && gain <= kGainHi
               ? frames_bad_
               : static_cast<std::uint64_t>(kWindow);
  }
  /// Start of a timed (or digested) stretch of frames.
  void start(std::uint64_t t_ns, LatencyHistogram* latency,
             std::uint64_t* digest) {
    last_ns_ = t_ns;
    latency_ = latency;
    digest_ = digest;
  }

  void on_item(const NeuroFrame& f) override {
    const std::uint64_t now = now_ns();
    if (latency_ != nullptr) {
      latency_->add(static_cast<double>(now - last_ns_) * 1e-6);
    }
    last_ns_ = now;
    if (!check(f)) ++frames_bad_;
    if (digest_ != nullptr) {
      *digest_ = fnv1a(*digest_, f.codes.data(),
                       f.codes.size() * sizeof(f.codes[0]));
      *digest_ = fnv1a(*digest_, &f.t, sizeof(f.t));
    }
    ++k_;
  }

  std::uint64_t last_ns() const { return last_ns_; }
  double min_gain() const { return min_gain_; }
  double max_gain() const { return max_gain_; }
  std::uint64_t pixels_fitted() const { return pixels_fitted_; }

 private:
  struct Fit {
    std::size_t pixel = 0;
    const double* truth = nullptr;
    double sv = 0.0, st = 0.0, svt = 0.0, stt = 0.0;
  };

  bool check(const NeuroFrame& f) {
    const std::size_t pixels = static_cast<std::size_t>(rows_ * cols_);
    bool ok = f.rows == rows_ && f.cols == cols_ && f.masked == 0 &&
              f.codes.size() == pixels && f.v_in.size() == pixels &&
              k_ < kWindow && f.t == t0_ + k_ * period_;
    if (!ok) return false;
    for (const std::int32_t code : f.codes) {
      ok &= code >= -code_limit_ && code <= code_limit_;
    }
    if (k_ < kFitFrom) return ok;
    for (Fit& fit : fits_) {
      const double t = fit.truth[k_];
      const double v = f.v_in[fit.pixel];
      fit.sv += v;
      fit.st += t;
      fit.svt += v * t;
      fit.stt += t * t;
    }
    return ok;
  }

  int rows_;
  int cols_;
  std::int32_t code_limit_;
  double t0_ = 0.0;
  double period_ = 0.0;
  int k_ = 0;
  std::uint64_t frames_bad_ = 0;
  std::vector<Fit> fits_;
  std::uint64_t last_ns_ = 0;
  LatencyHistogram* latency_ = nullptr;
  std::uint64_t* digest_ = nullptr;
  double min_gain_ = INFINITY;
  double max_gain_ = -INFINITY;
  std::uint64_t pixels_fitted_ = 0;
};

/// The prepared culture window seen at chip time: the culture replays its
/// pre-generated activity while the chip clock runs on, so chip time t
/// reads culture time t - shift.
class ShiftedSource final : public neurochip::SignalSource {
 public:
  ShiftedSource(const neurochip::SignalSource& inner, double shift)
      : inner_(&inner), shift_(shift) {}
  double eval(int row, int col, double t) const override {
    return inner_->eval(row, col, t - shift_);
  }
  void eval_column(int col, double t, std::span<double> out) const override {
    inner_->eval_column(col, t - shift_, out);
  }

 private:
  const neurochip::SignalSource* inner_;
  double shift_;
};

/// Timing decorator over the culture source: notes when the chip's batched
/// column evaluation starts and ends within one capture. With one thread
/// the columns are evaluated back to back, so [first, last] is the span of
/// source evaluation inside the capture.
class TimedSource final : public neurochip::SignalSource {
 public:
  explicit TimedSource(const neurochip::SignalSource& inner) : inner_(&inner) {}

  void reset() const { calls_ = 0; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t first_ns() const { return first_ns_; }
  std::uint64_t last_ns() const { return last_ns_; }

  double eval(int row, int col, double t) const override {
    return inner_->eval(row, col, t);
  }
  // Mutable bookkeeping in a const method: safe only because the
  // benchmark pins the capture engine to one thread.
  void eval_column(int col, double t, std::span<double> out) const override {
    const std::uint64_t begin = now_ns();
    inner_->eval_column(col, t, out);
    const std::uint64_t end = now_ns();
    if (calls_++ == 0) first_ns_ = begin;
    last_ns_ = end;
  }

 private:
  const neurochip::SignalSource* inner_;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t first_ns_ = 0;
  mutable std::uint64_t last_ns_ = 0;
};

/// Streams windows through ChipSession::run until `seconds` have elapsed
/// since `start_ns` and at least `min_frames` frames have been delivered
/// (at least one window). Returns the frames delivered; failed frames are
/// added to `failed`.
std::uint64_t run_session_windows(Rig& rig, CheckSink& sink,
                                  std::uint64_t& frame, std::uint64_t start_ns,
                                  double seconds, std::uint64_t min_frames,
                                  std::uint64_t& failed) {
  std::uint64_t frames = 0;
  while (true) {
    const double t0 = static_cast<double>(frame) * rig.period;
    const double culture_t0 =
        static_cast<double>(frame % static_cast<std::uint64_t>(rig.cycle)) *
        rig.period;
    const ShiftedSource source(rig.recording->prepare(culture_t0, kWindow),
                               t0 - culture_t0);
    sink.begin_window(*rig.recording, t0, rig.period);
    const core::SessionReport report =
        rig.neuro.session->run(source, t0, kWindow, sink);
    const std::uint64_t bad = sink.end_window();
    const bool wire_ok =
        report.frames == kWindow && report.stage_threads == 1 &&
        report.wire.frames == static_cast<std::uint64_t>(kWindow) &&
        report.wire.lost_words == 0 && report.wire.retries == 0;
    failed += wire_ok ? bad : static_cast<std::uint64_t>(kWindow);
    frames += static_cast<std::uint64_t>(kWindow);
    frame += static_cast<std::uint64_t>(kWindow);
    if (seconds_between(start_ns, now_ns()) >= seconds &&
        frames >= min_frames) {
      break;
    }
  }
  return frames;
}

/// Share of fed pixel samples above the quiescence threshold, over one
/// whole culture cycle (the inputs every run replays).
double active_fraction(Rig& rig) {
  const auto& chip_cfg = rig.neuro.chip->config();
  const std::size_t pixels =
      static_cast<std::size_t>(chip_cfg.rows) * chip_cfg.cols;
  std::uint64_t above = 0;
  for (int w = 0; w < rig.cycle; w += kWindow) {
    rig.recording->prepare(w * rig.period, kWindow);
    for (const int key : rig.recording->active_keys()) {
      for (const double v : rig.recording->ground_truth(
               key / chip_cfg.cols, key % chip_cfg.cols)) {
        above += std::abs(v) > kQuiescenceV ? 1 : 0;
      }
    }
  }
  return static_cast<double>(above) /
         (static_cast<double>(pixels) * static_cast<double>(rig.cycle));
}

}  // namespace

Outcome run_neuro(const Options& opt, bool sparse) {
  Outcome out;
  const auto build = [&] { return build_rig(opt.seed, sparse); };
  std::unique_ptr<Rig> rig = timed_setup(out, build);
  neurochip::NeuroChip& chip = *rig->neuro.chip;
  CheckSink sink(chip.rows(), chip.cols(), chip.config().adc.bits);
  std::uint64_t frame = 0;  // chip frames so far; frame time = frame * period

  // Warm-up: one window, excluded from every metric; its frames feed the
  // output digest, a fixed amount of output for any run length.
  out.digest = kFnvOffset;
  sink.start(now_ns(), nullptr, &out.digest);
  run_session_windows(*rig, sink, frame, now_ns(), 0.0, 0, out.warmup_failed);

  const auto note_checks = [&] {
    out.info["track.min_gain"] = sink.min_gain();
    out.info["track.max_gain"] = sink.max_gain();
    out.info["track.pixel_windows"] =
        static_cast<double>(sink.pixels_fitted());
  };

  if (!opt.trace) {
    const std::uint64_t start = now_ns();
    sink.start(start, &out.latency_ms, nullptr);
    out.attempted = run_session_windows(*rig, sink, frame, start, opt.seconds,
                                        min_ops(out.tail_q), out.failed);
    out.window_s = seconds_between(start, sink.last_ns());
    note_checks();
    rig.reset();
    finish_run(out, kSetupRepeats, build);
    return out;
  }

  // Traced run: an untraced third for the overhead reference, then the
  // traced remainder making the single-thread session path's three calls
  // per frame itself (capture, wire, sink) with spans around each.
  {
    const std::uint64_t start = now_ns();
    sink.start(start, nullptr, nullptr);
    out.attempted = run_session_windows(*rig, sink, frame, start,
                                        opt.seconds / 3.0, 0, out.failed);
    out.untraced_ops_per_s = static_cast<double>(out.attempted) /
                             seconds_between(start, sink.last_ns());
  }

  SpanLog log(kSpanCapacity);
  const auto& adc = chip.config().adc;
  const core::FrameCodec codec(
      2.0 * adc.full_scale.value() / static_cast<double>(1 << adc.bits),
      chip.nominal_conversion_gain());
  core::FrameWire wire(codec, 0.0, std::nullopt, dnachip::RetryPolicy{});
  Rng link_rng(derive_seed(opt.seed, 4));
  NeuroFrame scratch;
  core::WireStats wire_totals;
  const double traced_seconds = opt.seconds - opt.seconds / 3.0;
  const std::uint64_t start = now_ns();
  std::uint64_t last_end = start;
  std::uint64_t op = 0;
  sink.start(start, &out.latency_ms, nullptr);
  while (seconds_between(start, last_end) < traced_seconds && !log.full()) {
    const double t0 = static_cast<double>(frame) * rig->period;
    const double culture_t0 =
        static_cast<double>(frame % static_cast<std::uint64_t>(rig->cycle)) *
        rig->period;
    const int first_op = log.open("neuro.frame", last_end, -1, op);
    const std::uint64_t p0 = now_ns();
    const auto& prepared = rig->recording->prepare(culture_t0, kWindow);
    log.add("neuro.prepare", p0, now_ns(), first_op, op);
    sink.begin_window(*rig->recording, t0, rig->period);
    const ShiftedSource source(prepared, t0 - culture_t0);
    const TimedSource timed(source);
    core::WireStats window_wire;
    for (int k = 0; k < kWindow; ++k) {
      const int op_span =
          k == 0 ? first_op : log.open("neuro.frame", last_end, -1, op);
      timed.reset();
      const std::uint64_t c0 = now_ns();
      chip.capture_frame_into(timed, t0 + k * rig->period, scratch);
      const std::uint64_t c1 = now_ns();
      const int capture = log.add("neurochip.capture", c0, c1, op_span, op);
      if (timed.calls() > 0) {
        log.add("neuro.eval", timed.first_ns(), timed.last_ns(), capture, op);
      }
      window_wire += wire.process(
          scratch, static_cast<std::uint16_t>(k & 0xffff), link_rng.fork());
      const std::uint64_t w1 = now_ns();
      log.add("core.wire", c1, w1, op_span, op);
      sink.on_item(scratch);
      const std::uint64_t s1 = sink.last_ns();
      log.add("bench.sink", w1, s1, op_span, op);
      log.close(op_span, s1);
      last_end = s1;
      ++op;
    }
    const std::uint64_t bad = sink.end_window();
    out.failed += window_wire.lost_words == 0 && window_wire.retries == 0
                      ? bad
                      : static_cast<std::uint64_t>(kWindow);
    wire_totals += window_wire;
    frame += static_cast<std::uint64_t>(kWindow);
  }
  out.attempted += op;
  out.window_s = seconds_between(start, last_end);
  out.traced_ops_per_s = static_cast<double>(op) / out.window_s;
  note_checks();

  auto& other = out.info;
  other["untraced_ops_per_s"] = out.untraced_ops_per_s;
  other["traced_ops_per_s"] = out.traced_ops_per_s;
  other["core.wire_bits"] =
      static_cast<double>(wire_totals.bits) / static_cast<double>(op);
  other["core.retries"] = static_cast<double>(wire_totals.retries);
  other["core.lost_words"] = static_cast<double>(wire_totals.lost_words);
  other["neurochip.active_px_frac"] = active_fraction(*rig);
  if (!log.write(opt.trace_path, other)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  return out;
}

}  // namespace perfbench
