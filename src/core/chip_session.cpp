#include "core/chip_session.hpp"

#include <exception>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::core {

namespace {

std::uint16_t frame_seq(int index) {
  return static_cast<std::uint16_t>(index & 0xffff);
}

FrameCodec chip_codec(const neurochip::NeuroChip& chip) {
  const auto& adc = chip.config().adc;
  const double adc_lsb =
      2.0 * adc.full_scale.value() / static_cast<double>(1 << adc.bits);
  return FrameCodec(adc_lsb, chip.nominal_conversion_gain());
}

}  // namespace

void SessionConfig::validate() const {
  require(pool_frames >= 1, "ChipSession: pool needs at least one frame");
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
            obs_name_.empty() ? std::string{} : obs_name_ + ".pool"),
      // Every queued frame holds a pool handle, so a channel as deep as the
      // pool never blocks a push: `pool_.acquire()` is the one
      // backpressure point.
      capture_q_(pool_.capacity(),
                 obs_name_.empty() ? std::string{} : obs_name_ + ".capture_q"),
      wire_(chip_codec(chip), 0.0, config_.link_faults,
            dnachip::RetryPolicy{}) {
  config_.validate();
}

SessionReport ChipSession::run(const neurochip::SignalSource& source,
                               double t0, int n,
                               StreamSink<neurochip::NeuroFrame>& sink) {
  BIOSENSE_SPAN("session.run");
  require(n >= 0, "ChipSession: negative frame count");
  SessionReport report;
  report.frames = n;
  // Stepwise serial fallback: nothing to overlap with one thread or one
  // frame, and the two stage loops block on each other, so a nested call
  // or a second caller of a busy pool, which gets no second thread, runs
  // them inline.
  if (n <= 1 || max_threads() <= 1 ||
      !run_staged(source, t0, n, sink, report)) {
    run_serial(source, t0, n, sink, report);
  }
  report.pool = pool_.stats();
  return report;
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

void ChipSession::run_serial(const neurochip::SignalSource& source, double t0,
                             int n, StreamSink<neurochip::NeuroFrame>& sink,
                             SessionReport& report) {
  const double period = (1.0 / chip_->config().frame_rate).value();
  auto& tracer = obs::Tracer::global();
  for (int k = 0; k < n; ++k) {
    const std::uint64_t begin_ns = tracer.enabled() ? obs::now_ns() : 0;
    auto handle = pool_.acquire();
    require(static_cast<bool>(handle), "ChipSession: pool closed mid-run");
    chip_->capture_frame_into(source, t0 + k * period, *handle);
    report.wire += wire_.process(*handle, frame_seq(k), rng_.fork());
    sink.on_item(*handle);
    if (begin_ns != 0) tracer.record("session.frame", begin_ns, obs::now_ns());
  }
  sink.on_end();
}

bool ChipSession::run_staged(const neurochip::SignalSource& source, double t0,
                             int n, StreamSink<neurochip::NeuroFrame>& sink,
                             SessionReport& report) {
  const double period = (1.0 / chip_->config().frame_rate).value();
  auto& tracer = obs::Tracer::global();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  // First failure wins; closing the channel and the pool unblocks the
  // other stage (pushes fail, pops drain and stop, acquires hand out empty
  // handles), so the graph unwinds instead of deadlocking.
  const auto fail = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::move(error);
    }
    capture_q_.close();
    pool_.close();
  };

  const auto capture_loop = [&] {
    try {
      // Create and shape every pool frame before the first capture. Left
      // lazy, the number of frames a run creates would depend on how far
      // capture ran ahead, and a later run could pay the missing ones'
      // allocations.
      const auto pixels = static_cast<std::size_t>(chip_->config().rows *
                                                   chip_->config().cols);
      pool_.materialize([pixels](neurochip::NeuroFrame& f) {
        f.v_in.assign(pixels, 0.0);
        f.codes.assign(pixels, 0);
      });
      for (int k = 0; k < n; ++k) {
        const std::uint64_t begin_ns = tracer.enabled() ? obs::now_ns() : 0;
        auto handle = pool_.acquire();
        if (!handle) return;  // pool closed: the other stage failed
        chip_->capture_frame_into(source, t0 + k * period, *handle);
        FrameTask task;
        task.frame = std::move(handle);
        task.index = k;
        task.link_rng = rng_.fork();  // capture order, as in run_serial
        task.begin_ns = begin_ns;
        if (!capture_q_.push(std::move(task))) return;
      }
      capture_q_.close();  // end of stream; queued frames still drain
    } catch (...) {
      fail(std::current_exception());
    }
  };

  // Wire + sink: the single consumer of a single producer sees frames in
  // capture order.
  const auto wire_loop = [&] {
    try {
      int delivered = 0;
      while (auto task = capture_q_.pop()) {
        report.wire += wire_.process(*task->frame, frame_seq(task->index),
                                     task->link_rng);
        sink.on_item(*task->frame);
        if (task->begin_ns != 0) {
          tracer.record("session.frame", task->begin_ns, obs::now_ns());
        }
        ++delivered;
      }
      if (delivered == n) sink.on_end();
    } catch (...) {
      fail(std::current_exception());
    }
  };

  const bool scheduled = ThreadPool::global().try_parallel_for(
      0, 2, 1, [&](std::int64_t stage) {
        if (stage == 0) {
          capture_loop();
        } else {
          wire_loop();
        }
      });
  // Returns any stranded handle to the pool.
  capture_q_.reopen();

  if (!scheduled) return false;
  if (first_error) {
    pool_.reset();  // reopen for the next run; all handles are back
    std::rethrow_exception(first_error);
  }
  report.stage_threads = 2;
  return true;
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
