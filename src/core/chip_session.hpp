// Staged streaming acquisition session (DESIGN.md §11).
//
// One `ChipSession` owns the acquisition data path of a neural chip as a
// two-stage graph:
//
//   capture -> [capture_q] -> wire (serialize + link + host decode) + sink
//
// Frames travel as pooled handles (`FramePool`) through one bounded
// channel (`Channel`), so memory is fixed by the pool budget regardless of
// run length and the steady state allocates nothing. Every queued frame
// holds a pool handle, so the pool is the one backpressure point. The pool
// and the channel live as long as the session, and every run reopens them.
// With two or more configured threads and more than one frame the two
// stages run as long-lived loops on the `common/parallel` engine; with one
// thread, one frame, inside another pool job, or while another caller
// holds the pool, they run stepwise serial inline (no threads, no
// channel). The fleet server drives its neural sessions one frame per
// record this way.
//
// Determinism: capture is sequential on one stage (the chip is one
// physical scan chain), each frame's link RNG is forked in capture order,
// and the single wire+sink stage consumes frames in that order. Output is
// therefore bitwise identical for any thread count and any pool size
// (>= 1), and identical to the batch `NeuroChip::record` path when the
// link is lossless.
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
  /// Frame buffers in flight, end to end. Minimum 1; >= 2 lets capture
  /// run ahead of the wire.
  std::size_t pool_frames = 8;
  /// Host link imperfections (bit errors included), as for the DNA chip's
  /// 6-pin interface; the link retries with the default `RetryPolicy`.
  std::optional<faults::LinkFaultModel> link_faults{};
  /// Metric prefix: `<name>.capture_q.depth`, `<name>.pool.available`, ...
  /// The session claims a collision-free variant via
  /// `obs::Registry::claim_prefix` ("session", "session#2", ...), so many
  /// sessions sharing a base name keep distinct instruments. Empty
  /// disables instrument registration entirely (throughput-critical
  /// fleets).
  std::string name = "session";

  /// Throws ConfigError on a non-positive pool or an invalid fault model.
  void validate() const;
};

/// End-of-run accounting for one `run` call.
struct SessionReport {
  int frames = 0;
  /// Stage loops actually scheduled (1 = stepwise serial fallback).
  int stage_threads = 1;
  WireStats wire{};       // summed in frame order
  FramePoolStats pool{};  // cumulative across the session's runs
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
  void run_serial(const neurochip::SignalSource& source, double t0, int n,
                  StreamSink<neurochip::NeuroFrame>& sink,
                  SessionReport& report);
  /// A captured frame on its way to the wire stage.
  struct FrameTask {
    FramePool<neurochip::NeuroFrame>::Handle frame;
    int index = 0;
    Rng link_rng{0};
    std::uint64_t begin_ns = 0;  // pipeline span start (0 = tracing off)
  };

  /// Runs nothing and returns false when the pool cannot give the two
  /// stage loops a thread each.
  bool run_staged(const neurochip::SignalSource& source, double t0, int n,
                  StreamSink<neurochip::NeuroFrame>& sink,
                  SessionReport& report);

  neurochip::NeuroChip* chip_;  // analyze:transient - non-owning, rebound at construction
  SessionConfig config_;        // analyze:transient - frozen config
  Rng rng_;
  /// Collision-free instrument prefix claimed from the obs registry: the
  /// first session named "session" keeps it, later ones get "session#2",
  /// ... so a fleet of same-named sessions never aliases gauges. Ordered
  /// before pool_, which derives its instrument names from it.
  std::string obs_name_;  // analyze:transient - registry claim, re-claimed at construction
  FramePool<neurochip::NeuroFrame> pool_;
  /// capture -> wire queue of the staged schedule, as deep as the pool.
  /// Registered once as `<name>.capture_q`; closed at the end of every
  /// staged run and reopened after it.
  Channel<FrameTask> capture_q_;  // analyze:transient - empty between runs
  FrameWire wire_;  // analyze:transient - per-frame scratch, reset every frame
};

}  // namespace biosense::core
