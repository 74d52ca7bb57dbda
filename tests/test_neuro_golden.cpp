// Golden-frame contract of the SoA pixel engine (DESIGN.md §16).
//
// The capture hot path stores pixel state in plane buffers (PixelBank) and
// draws noise in batches over each channel's 8-row run. This test rebuilds
// the chip as a per-pixel object model — one Mosfet pair, storage voltage,
// step counter and flicker pole set per pixel, serial scan, every constant
// recomputed in place — drawing from the same scalar counter functions
// (noise/counter.hpp), and requires the chip's frames to match it BITWISE
// with noise on, faults injected, a defect map installed, a recalibration
// crossing inside the recorded window and the sparse path's fast-forward
// live, at 1 and 4 threads. Any batching or hoisting that changes a single
// ulp fails here.
//
// The reference model also serializes itself through the documented
// chip-state layout (version neurochip::kChipStateVersion), which must stay
// byte-identical to NeuroChip::save_state, and one pinned digest holds the
// contract across builds and instruction sets (ci.sh rebuilds this test
// with -march=native and requires the same digest).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "circuit/gain_stage.hpp"
#include "circuit/mosfet.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "faults/defect_map.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"
#include "noise/counter.hpp"
#include "noise/mismatch.hpp"
#include "noise/sources.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::neurochip {
namespace {

/// One pixel as an object, drawing straight from the counter functions.
struct RefPixel {
  static constexpr int kPairs = 4;  // white + six poles, in whole pairs

  PixelParams params;
  circuit::Mosfet m1;
  circuit::Mosfet m2;
  std::uint64_t key = 0;
  std::uint64_t index = 0;  // the pixel's plane index: its counter id
  std::uint64_t step = 0;
  std::uint64_t lag = 0;
  noise::FlickerPlan plan;
  std::array<double, noise::kFlickerPoles> poles{};
  double v_store = 0.0;
  double i_m2_actual = 0.0;
  double v_balance = 0.0;
  double v_bias_nominal_m1 = 0.0;
  double i_quiet = 0.0;
  bool calibrated = false;

  RefPixel(const PixelParams& p, noise::MismatchSampler& mismatch,
           std::uint64_t chip_key, std::uint64_t plane_index)
      : params(p),
        m1(p.m1, mismatch.sample(p.m1.w, p.m1.l)),
        m2(p.m2, mismatch.sample(p.m2.w, p.m2.l)),
        key(chip_key),
        index(plane_index),
        plan(p.noise_flicker_kf.value()) {
    const circuit::Mosfet nominal_m2(p.m2);
    const double v_drain = p.v_drain.value();
    const double v_bias =
        nominal_m2.vgs_for_current(p.i_cal.value(), v_drain, 0.0);
    i_m2_actual = m2.drain_current(v_bias, v_drain, 0.0);
    v_balance = m1.vgs_for_current(i_m2_actual, v_drain, 0.0);
    const circuit::Mosfet nominal_m1(p.m1);
    v_bias_nominal_m1 =
        nominal_m1.vgs_for_current(p.i_cal.value(), v_drain, 0.0);
    if (has_flicker()) {
      double z[2 * kPairs];
      noise::step_normals(key, index, step++, kPairs, z);
      for (std::size_t k = 0; k < poles.size(); ++k) {
        poles[k] = std::sqrt(plan.sigma2) * z[k + 1];
      }
    }
    decalibrate();
  }

  bool has_flicker() const {
    return params.noise_flicker_kf > VoltageSq(0.0);
  }
  double quiet_of() const {
    return m1.drain_current(v_store, params.v_drain.value(), 0.0) -
           i_m2_actual;
  }

  void calibrate() {
    double z[2];
    noise::step_normals(key, index, step++, 1, z);
    const double nominal =
        -params.s1.channel_charge * params.s1.injection_fraction;
    const double q = nominal * (1.0 - params.s1.compensation) +
                     nominal * (params.s1.injection_sigma * z[0]);
    v_store = v_balance + (Charge(q) / params.store_cap).value();
    calibrated = true;
    i_quiet = quiet_of();
  }
  void decalibrate() {
    v_store = v_bias_nominal_m1;
    calibrated = false;
    i_quiet = quiet_of();
  }
  void elapse(double dt) {
    v_store -= (params.droop_leak * Time(dt) / params.store_cap).value();
  }
  /// One noisy read at step dt, after `lag` quiet reads: the poles advance
  /// over every step they missed in one exact OU jump.
  double read_current(double v_signal, double dt) {
    const int pairs = has_flicker() ? kPairs : 1;
    double z[2 * kPairs];
    noise::step_normals(key, index, step++, pairs, z);
    double flicker = 0.0;
    if (has_flicker()) {
      const double steps = static_cast<double>(lag) + 1.0;
      for (std::size_t k = 0; k < poles.size(); ++k) {
        const double rate = dt / plan.tau[k];
        const double a = lag == 0 ? std::exp(-rate) : std::exp(-steps * rate);
        const double s = std::sqrt(plan.sigma2 * (1.0 - a * a));
        poles[k] = poles[k] * a + s * z[k + 1];
        flicker += poles[k];
      }
    }
    lag = 0;
    const double noise =
        noise::white_step_sigma(params.noise_white_psd.value(), dt) * z[0] +
        flicker;
    double v_gate = v_store + v_signal;
    v_gate += noise;
    return m1.drain_current(v_gate, params.v_drain.value(), 0.0) -
           i_m2_actual;
  }
  double gm() const {
    return m1.gm(v_balance, params.v_drain.value(), 0.0);
  }
};

/// Serial re-implementation of the capture engine over RefPixels.
struct RefChip {
  NeuroChipConfig config;
  Rng rng;
  noise::MismatchSampler mismatch;
  std::vector<RefPixel> pixels;
  std::vector<circuit::GainChain> row_chains;
  std::vector<circuit::GainChain> channel_chains;
  std::vector<double> channel_drift;
  faults::SiteFaultSet pixel_faults{};
  bool has_pixel_faults = false;
  faults::DefectMap defect_map{};
  double gm_nominal = 0.0;
  double last_calibration_t = 0.0;
  bool ever_calibrated = false;

  RefChip(const NeuroChipConfig& cfg, Rng seed_rng)
      : config(cfg), rng(seed_rng), mismatch(cfg.pelgrom, rng.fork()) {
    // One master draw keys every pixel's counter; pixels are built
    // row-major and addressed by their column-major plane index.
    const std::uint64_t key = rng.next_u64();
    const auto n = static_cast<std::size_t>(cfg.rows * cfg.cols);
    pixels.reserve(n);
    for (int r = 0; r < cfg.rows; ++r) {
      for (int c = 0; c < cfg.cols; ++c) {
        pixels.emplace_back(cfg.pixel, mismatch, key,
                            static_cast<std::uint64_t>(c * cfg.rows + r));
      }
    }
    for (int r = 0; r < cfg.rows; ++r) {
      row_chains.push_back(circuit::GainChain::on_chip(
          rng.fork(), cfg.gain_sigma, cfg.gain_offset_sigma.value()));
    }
    const int n_channels = cfg.rows / cfg.mux_factor;
    for (int c = 0; c < n_channels; ++c) {
      channel_chains.push_back(circuit::GainChain::off_chip(
          rng.fork(), cfg.gain_sigma,
          (cfg.gain_offset_sigma * 700.0).value()));
    }
    channel_drift.assign(static_cast<std::size_t>(n_channels), 1.0);
    gm_nominal = pixels.front().gm();
  }

  int channels() const { return config.rows / config.mux_factor; }

  void calibrate_all() {
    for (auto& p : pixels) p.calibrate();
    const double i_ref = (Conductance(gm_nominal) * 1.0_mV).value();
    for (auto& ch : row_chains) ch.calibrate(i_ref);
    for (auto& ch : channel_chains) ch.calibrate(i_ref * 700.0);
    ever_calibrated = true;
  }

  std::int32_t apply_pixel_fault(std::size_t idx, std::int32_t code) const {
    const auto full_code =
        static_cast<std::int32_t>(1 << (config.adc.bits - 1));
    switch (pixel_faults.type[idx]) {
      case faults::SiteFaultType::kDead:
        return 0;
      case faults::SiteFaultType::kStuck:
        return static_cast<std::int32_t>(
            std::lround(pixel_faults.value[idx] * full_code));
      case faults::SiteFaultType::kRailedHigh:
        return full_code;
      case faults::SiteFaultType::kRailedLow:
        return -full_code;
      default:
        return code;
    }
  }

  NeuroFrame capture_frame(const SignalSource& source, double t) {
    const int rows = config.rows;
    const int cols = config.cols;
    const int mux = config.mux_factor;
    const double frame_period = (1.0 / config.frame_rate).value();
    const double column_dwell = frame_period / cols;
    const double mux_slot = column_dwell / mux;

    NeuroFrame frame;
    frame.rows = rows;
    frame.cols = cols;
    frame.t = t;
    frame.v_in.assign(static_cast<std::size_t>(rows * cols), 0.0);
    frame.codes.assign(static_cast<std::size_t>(rows * cols), 0);

    const double full_scale = config.adc.full_scale.value();
    const double adc_lsb =
        2.0 * full_scale / static_cast<double>(1 << config.adc.bits);
    const double conv_gain = gm_nominal * 100.0 * 7.0 * 4.0 * 2.0;

    std::vector<double> scratch(static_cast<std::size_t>(rows * cols), 0.0);
    for (int col = 0; col < cols; ++col) {
      source.eval_column(col, t + col * column_dwell,
                         std::span<double>(scratch.data() + col * rows,
                                           static_cast<std::size_t>(rows)));
    }

    for (int ch = 0; ch < channels(); ++ch) {
      const int row_begin = ch * mux;
      auto& cc = channel_chains[static_cast<std::size_t>(ch)];
      for (int col = 0; col < cols; ++col) {
        for (int row = row_begin; row < row_begin + mux; ++row) {
          auto& px = pixels[static_cast<std::size_t>(row * cols + col)];
          const double v_sig = scratch[static_cast<std::size_t>(col * rows + row)];
          const double quiesce = config.quiescence_threshold.value();
          double i_diff = 0.0;
          if (quiesce > 0.0 && std::abs(v_sig) < quiesce) {
            ++px.lag;
            i_diff = px.i_quiet;
          } else {
            i_diff = px.read_current(v_sig, column_dwell);
          }
          auto& rc = row_chains[static_cast<std::size_t>(row)];
          rc.step(i_diff, 0.5 * column_dwell);
          const double i_row = rc.step(i_diff, 0.5 * column_dwell);
          cc.step(i_row, 0.5 * mux_slot);
          const double i_out = cc.step(i_row, 0.5 * mux_slot) *
                               channel_drift[static_cast<std::size_t>(ch)];
          const double clipped =
              std::clamp(i_out, -full_scale, full_scale);
          auto code =
              static_cast<std::int32_t>(std::lround(clipped / adc_lsb));
          const auto idx = static_cast<std::size_t>(row * cols + col);
          if (has_pixel_faults) code = apply_pixel_fault(idx, code);
          frame.codes[idx] = code;
          frame.v_in[idx] =
              static_cast<double>(code) * adc_lsb / conv_gain;
        }
      }
    }

    if (!defect_map.empty()) {
      for (const auto& [r, c] : defect_map.defects()) {
        std::int64_t sum = 0;
        int n = 0;
        const int nbr[4][2] = {{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}};
        for (const auto& rc : nbr) {
          if (rc[0] < 0 || rc[0] >= frame.rows || rc[1] < 0 ||
              rc[1] >= frame.cols) {
            continue;
          }
          if (!defect_map.good(rc[0], rc[1])) continue;
          sum += frame.codes[static_cast<std::size_t>(rc[0] * frame.cols +
                                                      rc[1])];
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

    for (auto& p : pixels) p.elapse(frame_period);
    if (ever_calibrated && t + frame_period - last_calibration_t >=
                               config.recalibration_interval.value()) {
      for (auto& p : pixels) p.calibrate();
      last_calibration_t = t + frame_period;
    }
    return frame;
  }

  const RefPixel& plane_pixel(std::size_t i) const {
    const auto rows = static_cast<std::size_t>(config.rows);
    const auto cols = static_cast<std::size_t>(config.cols);
    return pixels[(i % rows) * cols + i / rows];
  }

  /// The chip-state layout, version kChipStateVersion: master RNG and
  /// mismatch sampler; pixel count and flicker flag; per pixel in plane
  /// order its step, owed quiet reads, v_store and calibration flag; the
  /// pole values pole-major; then the gain chains and calibration clock.
  void save_state(snapshot::StateWriter& w) const {
    w.rng(rng);
    mismatch.save_state(w);
    w.u32(static_cast<std::uint32_t>(pixels.size()));
    const bool flicker = pixels.front().has_flicker();
    w.b(flicker);
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      const RefPixel& p = plane_pixel(i);
      w.u64(p.step);
      w.u64(p.lag);
      w.f64(p.v_store);
      w.b(p.calibrated);
    }
    if (flicker) {
      for (std::size_t k = 0; k < noise::kFlickerPoles; ++k) {
        for (std::size_t i = 0; i < pixels.size(); ++i) {
          w.f64(plane_pixel(i).poles[k]);
        }
      }
    }
    w.u32(static_cast<std::uint32_t>(row_chains.size()));
    for (const auto& c : row_chains) c.save_state(w);
    w.u32(static_cast<std::uint32_t>(channel_chains.size()));
    for (const auto& c : channel_chains) c.save_state(w);
    w.f64(last_calibration_t);
    w.b(ever_calibrated);
    defect_map.save_state(w);
  }
};

/// Deterministic travelling-wave stimulus exercising the batched source
/// path, same shape as the scaling bench.
/// `omega` off a multiple of the frame rate's half makes each pixel's
/// amplitude change from frame to frame, so a quiescence threshold sends
/// pixels quiet and back.
class GoldenWave final : public SignalSource {
 public:
  explicit GoldenWave(double omega = 6283.185307179586) : omega_(omega) {}
  double eval(int row, int col, double t) const override {
    return 1e-3 * std::sin(omega_ * t + 0.13 * col + 0.07 * row);
  }
  void eval_column(int col, double t, std::span<double> out) const override {
    const double phase = omega_ * t + 0.13 * col;
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = 1e-3 * std::sin(phase + 0.07 * static_cast<double>(r));
    }
  }

 private:
  double omega_;
};

NeuroChipConfig golden_config() {
  NeuroChipConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  // Recalibration crosses inside a short recording: frame period 0.5 ms,
  // interval 1.5 ms -> pixels recalibrate after frame 3.
  cfg.recalibration_interval = Time(1.5e-3);
  return cfg;
}

faults::SiteFaultSet golden_faults(const NeuroChipConfig& cfg) {
  faults::SiteFaultSet set;
  set.rows = cfg.rows;
  set.cols = cfg.cols;
  set.type.assign(static_cast<std::size_t>(cfg.rows * cfg.cols),
                  faults::SiteFaultType::kNone);
  set.value.assign(set.type.size(), 0.0);
  set.type[3] = faults::SiteFaultType::kDead;
  set.type[20] = faults::SiteFaultType::kStuck;
  set.value[20] = 0.37;
  set.type[100] = faults::SiteFaultType::kRailedHigh;
  set.type[200] = faults::SiteFaultType::kRailedLow;
  return set;
}

faults::DefectMap golden_defects(const NeuroChipConfig& cfg) {
  faults::DefectMap map(cfg.rows, cfg.cols);
  map.mark(0, 3, faults::DefectType::kDead);
  map.mark(6, 4, faults::DefectType::kStuck);
  map.mark(12, 8, faults::DefectType::kRailed);
  return map;
}

void expect_frames_bitwise_equal(const NeuroFrame& a, const NeuroFrame& b,
                                 int frame_no) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.masked, b.masked) << "frame " << frame_no;
  ASSERT_EQ(a.codes.size(), b.codes.size());
  EXPECT_EQ(0, std::memcmp(a.codes.data(), b.codes.data(),
                           a.codes.size() * sizeof(std::int32_t)))
      << "codes diverge in frame " << frame_no;
  // memcmp, not ==: bitwise identity is the contract (0.0 vs -0.0 and
  // NaN payloads must match too, not just compare equal).
  EXPECT_EQ(0, std::memcmp(a.v_in.data(), b.v_in.data(),
                           a.v_in.size() * sizeof(double)))
      << "v_in diverges in frame " << frame_no;
}

/// Chip and reference with the golden faults, channel drift and defect
/// map, both calibrated.
void arm(NeuroChip& chip, RefChip& ref) {
  const NeuroChipConfig& cfg = ref.config;
  const auto set = golden_faults(cfg);
  std::vector<double> drift(static_cast<std::size_t>(chip.channels()), 1.0);
  drift[0] = 1.013;
  drift[1] = 0.989;
  chip.inject_faults(set, drift);
  ref.pixel_faults = set;
  ref.has_pixel_faults = true;
  ref.channel_drift = drift;
  chip.set_defect_map(golden_defects(cfg));
  ref.defect_map = golden_defects(cfg);
  chip.calibrate_all();
  ref.calibrate_all();
}

void expect_lockstep(const NeuroChipConfig& cfg, const SignalSource& source,
                     std::uint64_t seed, int frames) {
  const double period = (1.0 / cfg.frame_rate).value();
  for (int threads : {1, 4}) {
    set_max_threads(threads);
    NeuroChip chip(cfg, Rng(seed));
    RefChip ref(cfg, Rng(seed));
    arm(chip, ref);
    for (int k = 0; k < frames; ++k) {
      const NeuroFrame got = chip.capture_frame(source, k * period);
      const NeuroFrame want = ref.capture_frame(source, k * period);
      expect_frames_bitwise_equal(got, want, k);
    }
  }
  set_max_threads(1);
}

TEST(NeuroGolden, BatchedFramesMatchObjectModelBitwise) {
  // Noise, faults, drift, a defect map and a recalibration after frame 3.
  expect_lockstep(golden_config(), GoldenWave(), 2026, 6);
}

TEST(NeuroGolden, SparseFastForwardMatchesObjectModelBitwise) {
  // Pixels cross a 0.6 mV threshold back and forth: quiet ones draw
  // nothing, and on their next active read the poles jump over every
  // missed step, in the batch and in the reference alike.
  NeuroChipConfig cfg = golden_config();
  cfg.quiescence_threshold = Voltage(0.6e-3);
  expect_lockstep(cfg, GoldenWave(2.0 * 3.141592653589793 * 730.0), 77, 12);
}

TEST(NeuroGolden, SaveStateMatchesReferenceLayoutByteForByte) {
  NeuroChipConfig cfg = golden_config();
  cfg.quiescence_threshold = Voltage(0.6e-3);  // owed quiet reads in flight
  const GoldenWave source(2.0 * 3.141592653589793 * 730.0);

  NeuroChip chip(cfg, Rng(7));
  RefChip ref(cfg, Rng(7));
  arm(chip, ref);
  const double period = (1.0 / cfg.frame_rate).value();
  for (int k = 0; k < 3; ++k) {
    (void)chip.capture_frame(source, k * period);
    (void)ref.capture_frame(source, k * period);
  }

  std::vector<std::uint8_t> got_bytes;
  snapshot::StateWriter got_w(got_bytes);
  chip.save_state(got_w);
  std::vector<std::uint8_t> want_bytes;
  snapshot::StateWriter want_w(want_bytes);
  ref.save_state(want_w);
  ASSERT_EQ(got_bytes.size(), want_bytes.size());
  EXPECT_EQ(got_bytes, want_bytes);

  // A reconstructed chip restores from the reference's bytes and then
  // continues bitwise in lockstep with it. Restore re-derives each pixel's
  // cached quiescent current from its drooped v_store (the frozen-cache
  // approximation of DESIGN.md §16), so the reference refreshes its own.
  for (RefPixel& p : ref.pixels) p.i_quiet = p.quiet_of();
  NeuroChip resumed(cfg, Rng(7));
  resumed.inject_faults(golden_faults(cfg), {1.013, 0.989});
  snapshot::StateReader r(want_bytes.data(), want_bytes.size());
  resumed.load_state(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.exhausted());
  for (int k = 3; k < 7; ++k) {
    const NeuroFrame got = resumed.capture_frame(source, k * period);
    const NeuroFrame want = ref.capture_frame(source, k * period);
    expect_frames_bitwise_equal(got, want, k);
  }
}

TEST(NeuroGolden, PinnedDigestOfFixedRun) {
  // 16x16, 64 frames, default noise, calibrated, golden wave: one FNV-1a
  // over every frame's codes and voltages. The digest holds for any thread
  // count and any -march on one CPU family (DESIGN.md §16).
  const NeuroChipConfig cfg = golden_config();
  const GoldenWave source;
  NeuroChip chip(cfg, Rng(1234));
  chip.calibrate_all();
  const double period = (1.0 / cfg.frame_rate).value();
  std::uint64_t h = kFnv1aOffset;
  for (int k = 0; k < 64; ++k) {
    const NeuroFrame f = chip.capture_frame(source, k * period);
    h = fnv1a(h, f.codes.data(), f.codes.size() * sizeof(std::int32_t));
    h = fnv1a(h, f.v_in.data(), f.v_in.size() * sizeof(double));
  }
  EXPECT_EQ(h, 0x09a31b49f8a256ecULL) << std::hex << h;
}

TEST(NeuroFrame, CheckedAccessorsAgreeWithCodeAt) {
  NeuroChipConfig cfg = golden_config();
  NeuroChip chip(cfg, Rng(5));
  chip.calibrate_all();
  NeuroFrame frame = chip.capture_frame(ConstantSource(1e-3), 0.0);

  // In-range: both surfaces address the same pixel.
  EXPECT_EQ(frame.at(3, 4),
            static_cast<double>(frame.code_at(3, 4)) *
                (2.0 * cfg.adc.full_scale.value() /
                 static_cast<double>(1 << cfg.adc.bits)) /
                chip.nominal_conversion_gain());

  // Out of range: `at` must reject exactly like `code_at` instead of
  // reading out of bounds.
  EXPECT_THROW(frame.at(-1, 0), ConfigError);
  EXPECT_THROW(frame.at(0, -1), ConfigError);
  EXPECT_THROW(frame.at(cfg.rows, 0), ConfigError);
  EXPECT_THROW(frame.at(0, cfg.cols), ConfigError);
  EXPECT_THROW(frame.code_at(cfg.rows, 0), ConfigError);
  const NeuroFrame& cframe = frame;
  EXPECT_THROW(cframe.at(cfg.rows, 0), ConfigError);
  EXPECT_THROW((void)cframe.code_at(0, cfg.cols), ConfigError);
}

}  // namespace
}  // namespace biosense::neurochip
