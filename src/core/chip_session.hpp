// Staged streaming acquisition session (DESIGN.md §11).
//
// One `ChipSession` owns the acquisition data path of a neural chip as a
// stage graph:
//
//   capture -> [capture_q] -> wire (serialize + link + host decode) ->
//   [decode_q] -> sink
//
// Frames travel as pooled handles (`FramePool`) through bounded channels
// (`Channel`), so memory is fixed by the pool budget regardless of run
// length and the steady state allocates nothing. The stages run on the
// existing deterministic `common/parallel` engine: with T configured
// threads the session schedules exactly T long-lived stage loops through
// one `parallel_for` (capture | T-2 wire lanes | sink; at T=2 wire and
// sink fuse; at T=1 — or re-entrantly, inside another pool job — the
// stages run stepwise serial inline, no threads, no channels).
//
// Determinism: capture is always sequential on one stage (the chip is one
// physical scan chain), each frame's link RNG is forked in capture order,
// and the sink reorders completed frames back into capture order through
// an allocation-free ring bounded by the pool capacity. Output is
// therefore bitwise identical for any thread count and any pool size that
// admits the stage graph (>= 1), and identical to the batch
// `NeuroChip::record` path when the link is lossless.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/channel.hpp"
#include "common/frame_pool.hpp"
#include "common/rng.hpp"
#include "common/stream.hpp"
#include "core/wire.hpp"
#include "faults/fault_plan.hpp"
#include "neurochip/array.hpp"

namespace biosense::core {

struct SessionConfig {
  /// Frame buffers in flight, end to end. Also bounds the sink's reorder
  /// window. Minimum 1; >= stage count keeps every stage busy.
  std::size_t pool_frames = 8;
  /// Depth of each inter-stage channel (backpressure granularity).
  std::size_t queue_depth = 4;
  /// Wire lanes when >= 3 threads run; 0 = one lane per spare thread.
  int wire_workers = 0;
  /// Host link imperfections, as for the DNA chip's 6-pin interface.
  double bit_error_rate = 0.0;
  std::optional<faults::LinkFaultModel> link_faults{};
  dnachip::RetryPolicy retry{};
  /// Metric prefix: `<name>.capture_q.depth`, `<name>.pool.available`, ...
  /// The session claims a collision-free variant via
  /// `obs::Registry::claim_prefix` ("session", "session#2", ...), so many
  /// sessions sharing a base name keep distinct instruments. Empty
  /// disables instrument registration entirely (throughput-critical
  /// fleets).
  std::string name = "session";

  /// Throws ConfigError on a non-positive pool, BER outside [0,1), or an
  /// invalid retry/fault model.
  void validate() const;
};

/// End-of-run accounting for one `run` call.
struct SessionReport {
  int frames = 0;
  /// Stage loops actually scheduled (1 = stepwise serial fallback).
  int stage_threads = 1;
  int wire_workers = 0;
  WireStats wire{};              // summed in frame order
  FramePoolStats pool{};         // cumulative across the session's runs
  ChannelStats capture_queue{};  // this run
  ChannelStats decode_queue{};   // this run (empty when stages fused)
};

class ChipSession {
 public:
  /// The session borrows `chip` (must outlive the session). `rng` seeds
  /// the per-frame link streams only — chip state is never touched by it.
  ChipSession(neurochip::NeuroChip& chip, SessionConfig config, Rng rng);

  /// Streams `n` frames starting at t0 through the stage graph into
  /// `sink`. The sink sees host-decoded frames in capture order on a
  /// single thread; the referenced frame is recycled after `on_item`
  /// returns. Rethrows the first stage exception after the graph unwinds
  /// (`on_end` is not called in that case).
  SessionReport run(const neurochip::SignalSource& source, double t0, int n,
                    StreamSink<neurochip::NeuroFrame>& sink);

  /// Batch wrapper: a collect-all sink over `run`.
  std::vector<neurochip::NeuroFrame> record(  // lint:allow-batch-return
      const neurochip::SignalSource& source, double t0, int n);

  const SessionConfig& config() const { return config_; }

  /// Stage-graph position between runs: the per-frame link-RNG master
  /// stream (forked once per frame in capture order) and the quiesced
  /// pool's accounting. Only legal between `run` calls — mid-run the
  /// stage graph owns frames in flight.
  void save_state(snapshot::StateWriter& w) const;
  void load_state(snapshot::StateReader& r);

 private:
  struct FrameTask {
    FramePool<neurochip::NeuroFrame>::Handle frame;
    int index = 0;
    Rng link_rng{0};
    WireStats stats{};
    std::uint64_t begin_ns = 0;  // pipeline span start (0 = tracing off)
  };

  FrameCodec make_codec() const;
  SessionReport run_serial(const neurochip::SignalSource& source, double t0,
                           int n, StreamSink<neurochip::NeuroFrame>& sink);
  SessionReport run_staged(const neurochip::SignalSource& source, double t0,
                           int n, StreamSink<neurochip::NeuroFrame>& sink,
                           int threads);

  neurochip::NeuroChip* chip_;  // analyze:transient - non-owning, rebound at construction
  SessionConfig config_;        // analyze:transient - frozen config
  Rng rng_;
  /// Collision-free instrument prefix claimed from the obs registry: the
  /// first session named "session" keeps it, later ones get "session#2",
  /// ... so a fleet of same-named sessions never aliases gauges. Ordered
  /// before pool_, which derives its instrument names from it.
  std::string obs_name_;  // analyze:transient - registry claim, re-claimed at construction
  FramePool<neurochip::NeuroFrame> pool_;
};

}  // namespace biosense::core
