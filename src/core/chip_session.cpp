#include "core/chip_session.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::core {

namespace {

std::uint16_t frame_seq(int index) {
  return static_cast<std::uint16_t>(index & 0xffff);
}

}  // namespace

void SessionConfig::validate() const {
  require(pool_frames >= 1, "ChipSession: pool needs at least one frame");
  require(queue_depth >= 1, "ChipSession: queues need at least depth one");
  require(wire_workers >= 0, "ChipSession: wire workers must be >= 0");
  require(bit_error_rate >= 0.0 && bit_error_rate < 1.0,
          "ChipSession: BER must be in [0,1)");
  require(retry.max_attempts >= 1,
          "ChipSession: retry policy needs at least one attempt");
  require(retry.backoff_base_s >= 0.0 && retry.backoff_multiplier >= 1.0,
          "ChipSession: backoff must be non-negative and non-shrinking");
  if (link_faults) link_faults->validate();
}

ChipSession::ChipSession(neurochip::NeuroChip& chip, SessionConfig config,
                         Rng rng)
    : chip_(&chip),
      config_(std::move(config)),
      rng_(rng),
      obs_name_(config_.name.empty()
                    ? std::string{}
                    : obs::Registry::global().claim_prefix(config_.name)),
      pool_(config_.pool_frames,
            obs_name_.empty() ? std::string{} : obs_name_ + ".pool") {
  config_.validate();
}

FrameCodec ChipSession::make_codec() const {
  const auto& adc = chip_->config().adc;
  const double adc_lsb =
      2.0 * adc.full_scale.value() / static_cast<double>(1 << adc.bits);
  return FrameCodec(adc_lsb, chip_->nominal_conversion_gain());
}

SessionReport ChipSession::run(const neurochip::SignalSource& source,
                               double t0, int n,
                               StreamSink<neurochip::NeuroFrame>& sink) {
  BIOSENSE_SPAN("session.run");
  require(n >= 0, "ChipSession: negative frame count");
  const int threads = max_threads();
  // Stepwise serial fallback: nothing to overlap with one thread, and a
  // blocking stage graph scheduled from inside another pool job would
  // never start its downstream stages (nested parallel_for is serial).
  if (threads <= 1 || inside_parallel_job() || n == 0) {
    return run_serial(source, t0, n, sink);
  }
  return run_staged(source, t0, n, sink, threads);
}

std::vector<neurochip::NeuroFrame> ChipSession::record(
    const neurochip::SignalSource& source, double t0, int n) {
  // Batch wrapper: collect-all sink.
  std::vector<neurochip::NeuroFrame> frames;
  frames.reserve(static_cast<std::size_t>(n));
  FunctionSink<neurochip::NeuroFrame> collect(
      [&frames](const neurochip::NeuroFrame& f) { frames.push_back(f); });
  run(source, t0, n, collect);
  return frames;
}

SessionReport ChipSession::run_serial(const neurochip::SignalSource& source,
                                      double t0, int n,
                                      StreamSink<neurochip::NeuroFrame>& sink) {
  SessionReport report;
  report.frames = n;
  report.stage_threads = 1;
  FrameWire wire(make_codec(), config_.bit_error_rate, config_.link_faults,
                 config_.retry);
  const double period = (1.0 / chip_->config().frame_rate).value();
  auto& tracer = obs::Tracer::global();
  for (int k = 0; k < n; ++k) {
    const std::uint64_t begin_ns = tracer.enabled() ? obs::now_ns() : 0;
    auto handle = pool_.acquire();
    require(static_cast<bool>(handle), "ChipSession: pool closed mid-run");
    chip_->capture_frame_into(source, t0 + k * period, *handle);
    report.wire += wire.process(*handle, frame_seq(k), rng_.fork());
    sink.on_item(*handle);
    if (begin_ns != 0) tracer.record("session.frame", begin_ns, obs::now_ns());
  }
  sink.on_end();
  report.pool = pool_.stats();
  return report;
}

SessionReport ChipSession::run_staged(const neurochip::SignalSource& source,
                                      double t0, int n,
                                      StreamSink<neurochip::NeuroFrame>& sink,
                                      int threads) {
  SessionReport report;
  report.frames = n;
  const bool fused = threads == 2;  // wire + sink share one stage loop
  const int spare = threads - 2;
  const int wire_workers =
      fused ? 0
            : (config_.wire_workers > 0
                   ? std::min(config_.wire_workers, spare)
                   : spare);
  report.stage_threads = fused ? 2 : 2 + wire_workers;
  report.wire_workers = fused ? 1 : wire_workers;

  // Create and shape every pool frame before the stages start. Left lazy,
  // the number of frames a run creates would depend on how far capture ran
  // ahead, and a later run could pay the missing ones' allocations.
  const auto pixels = static_cast<std::size_t>(chip_->config().rows *
                                               chip_->config().cols);
  pool_.materialize([pixels](neurochip::NeuroFrame& f) {
    f.v_in.assign(pixels, 0.0);
    f.codes.assign(pixels, 0);
  });

  const FrameCodec codec = make_codec();
  const double period = (1.0 / chip_->config().frame_rate).value();
  const std::size_t pool_cap = pool_.capacity();
  auto& tracer = obs::Tracer::global();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  {
    Channel<FrameTask> to_wire(
        config_.queue_depth,
        obs_name_.empty() ? std::string{} : obs_name_ + ".capture_q");
    Channel<FrameTask> to_sink(
        config_.queue_depth,
        obs_name_.empty() ? std::string{} : obs_name_ + ".decode_q");
    std::atomic<int> wire_alive{wire_workers};

    // First failure wins; closing everything unblocks the other stages
    // (pushes start failing, pops drain and stop, acquires hand out empty
    // handles), so the graph unwinds instead of deadlocking.
    const auto fail = [&](std::exception_ptr error) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::move(error);
      }
      to_wire.close();
      to_sink.close();
      pool_.close();
    };

    const auto capture_loop = [&] {
      try {
        for (int k = 0; k < n; ++k) {
          const std::uint64_t begin_ns = tracer.enabled() ? obs::now_ns() : 0;
          auto handle = pool_.acquire();
          if (!handle) return;  // pool closed: another stage failed
          chip_->capture_frame_into(source, t0 + k * period, *handle);
          FrameTask task;
          task.frame = std::move(handle);
          task.index = k;
          task.link_rng = rng_.fork();  // capture order, every mode
          task.begin_ns = begin_ns;
          if (!to_wire.push(std::move(task))) return;
        }
        to_wire.close();  // end of stream; queued frames still drain
      } catch (...) {
        fail(std::current_exception());
      }
    };

    const auto wire_loop = [&] {
      try {
        FrameWire wire(codec, config_.bit_error_rate, config_.link_faults,
                       config_.retry);  // per-lane scratch, never shared
        while (auto task = to_wire.pop()) {
          task->stats =
              wire.process(*task->frame, frame_seq(task->index),
                           task->link_rng);
          if (!to_sink.push(std::move(*task))) return;
        }
        if (wire_alive.fetch_sub(1) == 1) to_sink.close();  // last lane out
      } catch (...) {
        fail(std::current_exception());
      }
    };

    const auto deliver = [&](FrameTask& task) {
      sink.on_item(*task.frame);
      report.wire += task.stats;
      if (task.begin_ns != 0) {
        tracer.record("session.frame", task.begin_ns, obs::now_ns());
      }
      task.frame.release();
    };

    // Fused wire+sink stage (two threads): the single consumer of a single
    // producer sees tasks in capture order already.
    const auto fused_loop = [&] {
      try {
        FrameWire wire(codec, config_.bit_error_rate, config_.link_faults,
                       config_.retry);
        int delivered = 0;
        while (auto task = to_wire.pop()) {
          task->stats =
              wire.process(*task->frame, frame_seq(task->index),
                           task->link_rng);
          deliver(*task);
          ++delivered;
        }
        if (delivered == n) sink.on_end();
      } catch (...) {
        fail(std::current_exception());
      }
    };

    // Sink stage: wire lanes finish out of order; an allocation-free ring
    // bounded by the pool capacity restores capture order (frame k can
    // only be in flight while k - next < pool_cap handles are out).
    const auto sink_loop = [&] {
      try {
        std::vector<FrameTask> ring(pool_cap);
        std::vector<char> filled(pool_cap, 0);
        int next = 0;
        while (auto task = to_sink.pop()) {
          const std::size_t slot =
              static_cast<std::size_t>(task->index) % pool_cap;
          ring[slot] = std::move(*task);
          filled[slot] = 1;
          while (next < n &&
                 filled[static_cast<std::size_t>(next) % pool_cap] != 0 &&
                 ring[static_cast<std::size_t>(next) % pool_cap].index ==
                     next) {
            const std::size_t s = static_cast<std::size_t>(next) % pool_cap;
            deliver(ring[s]);
            filled[s] = 0;
            ++next;
          }
        }
        if (next == n) sink.on_end();
      } catch (...) {
        fail(std::current_exception());
      }
    };

    std::vector<std::function<void()>> stages;
    stages.reserve(static_cast<std::size_t>(report.stage_threads));
    stages.push_back(capture_loop);
    if (fused) {
      stages.push_back(fused_loop);
    } else {
      for (int w = 0; w < wire_workers; ++w) stages.push_back(wire_loop);
      stages.push_back(sink_loop);
    }

    // One long-lived stage loop per scheduled thread. Dynamic chunk
    // claiming means a stage that finishes early can pick up a not-yet-
    // started one, so every stage is eventually claimed as long as
    // stages.size() <= threads — which the arithmetic above guarantees.
    ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(stages.size()), 1,
        [&stages](std::int64_t i) {
          stages[static_cast<std::size_t>(i)]();
        });

    report.capture_queue = to_wire.stats();
    report.decode_queue = to_sink.stats();
  }  // channels destruct here, returning any stranded handles to the pool

  if (first_error) {
    pool_.reset();  // reopen for the next run; all handles are back
    std::rethrow_exception(first_error);
  }
  report.pool = pool_.stats();
  return report;
}

void ChipSession::save_state(snapshot::StateWriter& w) const {
  w.rng(rng_);
  pool_.save_state(w);
}

void ChipSession::load_state(snapshot::StateReader& r) {
  r.rng(rng_);
  pool_.load_state(r);
}

}  // namespace biosense::core
