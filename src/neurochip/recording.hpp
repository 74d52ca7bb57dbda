// Couples a simulated neural culture to the recording chip: precomputes
// each covered pixel's electrode waveform at the chip's actual per-pixel
// sampling instants (including the column scan phase) and runs the frame
// sequencer over it. This is the "experiment" object: culture on chip,
// record, get frames — streamed one at a time or collected via the batch
// compat wrapper.
#pragma once

#include <memory>
#include <vector>

#include "common/stream.hpp"
#include "neuro/culture.hpp"
#include "neurochip/array.hpp"

namespace biosense::neurochip {

class RecordingSession {
 public:
  /// The culture's coordinate origin maps to the chip's pixel (0, 0); pixel
  /// (r, c) sits at ((c + 0.5) pitch, (r + 0.5) pitch).
  RecordingSession(const neuro::NeuronCulture& culture, NeuroChip& chip);
  ~RecordingSession();

  /// Precomputes per-pixel waveforms for the window [t0, t0 + n/fs) and
  /// returns the batched signal source over them. The source stays valid
  /// until the next `prepare`/`record` call or session destruction — the
  /// streaming workbench hands it to a `core::ChipSession` capture stage.
  const SignalSource& prepare(double t0, int n_frames);

  /// Streams `n_frames` frames starting at t0 into `sink` (prepares the
  /// window first). One scratch frame is reused; sinks copy what they keep.
  void record_stream(double t0, int n_frames, StreamSink<NeuroFrame>& sink);

  /// Batch compat wrapper: collect-all sink over `record_stream`.
  std::vector<NeuroFrame> record(  // lint:allow-batch-return
      double t0, int n_frames);

  /// Number of pixels covered by at least one neuron footprint.
  std::size_t active_pixels() const { return active_keys_.size(); }

  /// Row-major keys (r * cols + c) of covered pixels, ascending — the
  /// pixel set a streaming consumer should accumulate traces for.
  const std::vector<int>& active_keys() const { return active_keys_; }

  /// Ground truth: electrode waveform of pixel (r, c) at the chip's
  /// sampling instants for the last prepared window (empty if uncovered).
  const std::vector<double>& ground_truth(int r, int c) const;

 private:
  /// One (neuron, pixel) footprint hit of the last prepare, in walk order.
  struct Cover {
    int neuron;
    int row;
    int col;
    double weight;
  };

  /// Index of `key` in active_keys_, or active_keys_.size() if uncovered.
  std::size_t slot(int key) const;

  const neuro::NeuronCulture* culture_;
  NeuroChip* chip_;
  std::vector<int> active_keys_;  // key = r * cols + c, ascending
  // samples_[i]: active_keys_[i]'s waveform, one sample per frame. Kept
  // across windows so their storage is reused.
  std::vector<std::vector<double>> samples_;
  std::vector<const double*> grid_;   // dense row-major sample pointers
  std::unique_ptr<SignalSource> source_;  // over grid_, set by prepare()
  std::vector<double> empty_;
  // Scratch hoisted out of the precompute walk.
  std::vector<Cover> cover_scratch_;
  std::vector<double> shifted_scratch_;
  std::vector<double> contrib_scratch_;
};

}  // namespace biosense::neurochip
