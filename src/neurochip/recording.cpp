#include "neurochip/recording.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "neuro/spike_train.hpp"

namespace biosense::neurochip {

namespace {

/// Batched source over the session's precomputed per-pixel waveforms: a
/// row-major grid of sample pointers (null = uncovered pixel) indexed by
/// frame number. One virtual call fills a whole column — no hashing, no
/// per-pixel std::function dispatch.
class CultureSource final : public SignalSource {
 public:
  CultureSource(const std::vector<const double*>& grid, int cols, double t0,
                double fs, std::size_t n_frames)
      : grid_(grid), cols_(cols), t0_(t0), fs_(fs), n_frames_(n_frames) {}

  double eval(int row, int col, double t) const override {
    const double* samples = grid_[static_cast<std::size_t>(row * cols_ + col)];
    if (samples == nullptr) return 0.0;
    const std::size_t k = frame_index(t);
    return k < n_frames_ ? samples[k] : 0.0;
  }

  void eval_column(int col, double t, std::span<double> out) const override {
    const std::size_t k = frame_index(t);
    if (k >= n_frames_) {
      for (auto& v : out) v = 0.0;
      return;
    }
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double* samples =
          grid_[r * static_cast<std::size_t>(cols_) + static_cast<std::size_t>(col)];
      out[r] = samples == nullptr ? 0.0 : samples[k];
    }
  }

 private:
  /// Frame index: the per-column phase is already folded into the
  /// precomputed samples, so truncate (not round) to the frame number.
  /// Times outside the window give n_frames_ (0 V): the range is checked
  /// on the double, since casting a negative or oversized one to
  /// std::size_t is undefined.
  std::size_t frame_index(double t) const {
    if (t < t0_) return n_frames_;
    const double k = (t - t0_) * fs_ + 1e-9;
    return k < static_cast<double>(n_frames_) ? static_cast<std::size_t>(k)
                                              : n_frames_;
  }

  const std::vector<const double*>& grid_;
  int cols_;
  double t0_;
  double fs_;
  std::size_t n_frames_;
};

/// Indices [lo, hi] of the pixels whose centres (i + 0.5) * pitch lie
/// within `reach` of `centre` along one axis, clipped to [0, count); empty
/// when lo > hi. Clipped as doubles: casting an out-of-range double to int
/// is undefined.
std::pair<int, int> pixel_span(double centre, double reach, double pitch,
                               int count) {
  const double lo = std::ceil((centre - reach) / pitch - 0.5);
  const double hi = std::floor((centre + reach) / pitch - 0.5);
  return {static_cast<int>(std::clamp(lo, 0.0, static_cast<double>(count))),
          static_cast<int>(
              std::clamp(hi, -1.0, static_cast<double>(count - 1)))};
}

}  // namespace

RecordingSession::RecordingSession(const neuro::NeuronCulture& culture,
                                   NeuroChip& chip)
    : culture_(&culture), chip_(&chip) {}

RecordingSession::~RecordingSession() = default;

const SignalSource& RecordingSession::prepare(double t0, int n_frames) {
  require(n_frames > 0, "RecordingSession: need at least one frame");

  const auto& cfg = chip_->config();
  const TimingBudget tb = chip_->timing();
  const double fs = cfg.frame_rate.value();
  const double pitch = cfg.pitch.value();
  const auto n = static_cast<std::size_t>(n_frames);
  const auto& neurons = culture_->neurons();

  // Walk each neuron, in index order, over the pixels of its footprint's
  // bounding box (its reach plus one pitch of margin, clipped to the
  // array), applying the per-pixel cover test. Pixel (r, c) sits at
  // ((c + 0.5) pitch, (r + 0.5) pitch).
  cover_scratch_.clear();
  for (std::size_t k = 0; k < neurons.size(); ++k) {
    const neuro::PlacedNeuron& nr = neurons[k];
    const double reach = culture_->footprint_reach(nr) + pitch;
    const auto [c_lo, c_hi] = pixel_span(nr.x, reach, pitch, cfg.cols);
    const auto [r_lo, r_hi] = pixel_span(nr.y, reach, pitch, cfg.rows);
    for (int c = c_lo; c <= c_hi; ++c) {
      const double x = ((c + 0.5) * cfg.pitch).value();
      for (int r = r_lo; r <= r_hi; ++r) {
        const double y = ((r + 0.5) * cfg.pitch).value();
        const double w = culture_->footprint_weight(nr, x, y);
        if (w > neuro::NeuronCulture::kCoverWeight) {
          cover_scratch_.push_back({static_cast<int>(k), r, c, w});
        }
      }
    }
  }

  active_keys_.clear();
  for (const Cover& h : cover_scratch_) {
    active_keys_.push_back(h.row * cfg.cols + h.col);
  }
  std::sort(active_keys_.begin(), active_keys_.end());
  active_keys_.erase(std::unique(active_keys_.begin(), active_keys_.end()),
                     active_keys_.end());
  if (samples_.size() < active_keys_.size()) {
    samples_.resize(active_keys_.size());
  }
  for (std::size_t i = 0; i < active_keys_.size(); ++i) {
    samples_[i].assign(n, 0.0);
  }

  // Each covered pixel's waveform at the chip's actual sampling instants:
  // pixel (r, c) of frame k is sampled at t0 + k/fs + c*column_dwell. The
  // per-column phase is folded into the spike times, so the pixels of one
  // column differ only by their weight and one uniform-rate render per
  // (neuron, column) serves them all. Hits arrive in ascending neuron
  // order, so each pixel sums its neurons in the order a per-pixel scan
  // would, bit for bit.
  int rendered_neuron = -1;
  int rendered_col = -1;
  for (const Cover& h : cover_scratch_) {
    if (h.neuron != rendered_neuron || h.col != rendered_col) {
      const neuro::PlacedNeuron& nr =
          neurons[static_cast<std::size_t>(h.neuron)];
      const double phase = t0 + h.col * tb.column_dwell;
      shifted_scratch_.clear();
      for (double ts : nr.spike_times) shifted_scratch_.push_back(ts - phase);
      neuro::render_spike_waveform_into(shifted_scratch_, nr.templ,
                                        culture_->config().template_fs, fs, n,
                                        contrib_scratch_);
      rendered_neuron = h.neuron;
      rendered_col = h.col;
    }
    std::vector<double>& sig = samples_[slot(h.row * cfg.cols + h.col)];
    for (std::size_t i = 0; i < n; ++i) {
      sig[i] += h.weight * contrib_scratch_[i];
    }
  }

  // Dense pointer grid for the batched capture path.
  grid_.assign(
      static_cast<std::size_t>(cfg.rows) * static_cast<std::size_t>(cfg.cols),
      nullptr);
  for (std::size_t i = 0; i < active_keys_.size(); ++i) {
    grid_[static_cast<std::size_t>(active_keys_[i])] = samples_[i].data();
  }

  source_ = std::make_unique<CultureSource>(grid_, cfg.cols, t0, fs, n);
  return *source_;
}

void RecordingSession::record_stream(double t0, int n_frames,
                                     StreamSink<NeuroFrame>& sink) {
  const SignalSource& source = prepare(t0, n_frames);
  chip_->record_stream(source, t0, n_frames, sink);
}

std::vector<NeuroFrame> RecordingSession::record(double t0, int n_frames) {
  std::vector<NeuroFrame> frames;
  frames.reserve(static_cast<std::size_t>(n_frames));
  FunctionSink<NeuroFrame> collect(
      [&frames](const NeuroFrame& f) { frames.push_back(f); });
  record_stream(t0, n_frames, collect);
  return frames;
}

std::size_t RecordingSession::slot(int key) const {
  const auto it =
      std::lower_bound(active_keys_.begin(), active_keys_.end(), key);
  return it != active_keys_.end() && *it == key
             ? static_cast<std::size_t>(it - active_keys_.begin())
             : active_keys_.size();
}

const std::vector<double>& RecordingSession::ground_truth(int r, int c) const {
  const std::size_t i = slot(r * chip_->config().cols + c);
  return i < active_keys_.size() ? samples_[i] : empty_;
}

}  // namespace biosense::neurochip
