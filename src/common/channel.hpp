// Bounded blocking channel for the streaming pipeline.
//
// A mutex/condvar MPMC queue with a fixed capacity — the backpressure
// element of the stage graph (see DESIGN.md §11). Producers block (or fail
// fast with `try_push`) when the consumer falls behind, so a pipeline's
// memory footprint is set by its pool and queue capacities, never by run
// length. Storage is a ring buffer preallocated at construction (T must be
// default-constructible and movable): a push/pop cycle moves the item and
// touches no allocator, which the streaming pipeline's zero-steady-state-
// allocation budget depends on. Explicit accounting: every blocking episode
// is counted per side, and a channel constructed with a name registers a
// queue-depth gauge and stall counters with the observability registry
// (always-on registry access — a depth update is one relaxed store,
// negligible next to the queue's own mutex, and metrics never feed back
// into what is computed, so the determinism contract is untouched).
//
// Shutdown: `close()` wakes every blocked producer and consumer. Blocked
// or subsequent pushes return false; pops drain the remaining items and
// then return nullopt; `reopen()` makes a closed channel usable again.
// Determinism note: a channel orders *when* frames move, never their
// contents — values are owned by exactly one stage at a time, so
// capacities affect blocking, not results.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace biosense {

/// Snapshot of one channel's traffic and backpressure accounting.
struct ChannelStats {
  std::uint64_t pushes = 0;       // items accepted
  std::uint64_t pops = 0;         // items delivered
  std::uint64_t push_stalls = 0;  // blocking episodes with the queue full
  std::uint64_t pop_stalls = 0;   // blocking episodes with the queue empty
  std::size_t max_depth = 0;      // high-water mark
};

template <typename T>
class Channel {
 public:
  /// A zero capacity is clamped to 1 (a rendezvous of depth 0 cannot make
  /// progress with blocking semantics). `name`, when non-empty, registers
  /// `<name>.depth` (gauge), `<name>.push_stalls` and `<name>.pop_stalls`
  /// (counters) with the global registry. The name is claimed through
  /// `Registry::claim_prefix`, so two channels constructed with the same
  /// name get distinct instruments (`name.*`, `name#2.*`, ...) instead of
  /// silently aliasing each other — with hundreds of fleet sessions each
  /// owning a ring, aliased stall counters would be unattributable.
  explicit Channel(std::size_t capacity, const std::string& name = {})
      : capacity_(capacity == 0 ? 1 : capacity), ring_(capacity_) {
    if (!name.empty()) {
      auto& registry = obs::Registry::global();
      const std::string prefix = registry.claim_prefix(name);
      depth_gauge_ = &registry.gauge(prefix + ".depth");
      push_stall_counter_ = &registry.counter(prefix + ".push_stalls");
      pop_stall_counter_ = &registry.counter(prefix + ".pop_stalls");
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Blocks while the channel is full. Returns false — and leaves `item`
  /// unconsumed on the channel — once the channel is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ >= capacity_ && !closed_) {
      ++stats_.push_stalls;
      if (push_stall_counter_ != nullptr) push_stall_counter_->add(1);
      not_full_.wait(lock, [this] { return count_ < capacity_ || closed_; });
    }
    if (closed_) return false;
    ring_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
    note_push();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || count_ >= capacity_) return false;
    ring_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
    note_push();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the channel is empty. Returns nullopt once the channel
  /// is closed *and* drained — a close never loses queued items.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0 && !closed_) {
      ++stats_.pop_stalls;
      if (pop_stall_counter_ != nullptr) pop_stall_counter_->add(1);
      not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
    }
    if (count_ == 0) return std::nullopt;
    return take(lock);
  }

  /// Non-blocking pop; nullopt when empty (closed or not).
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0) return std::nullopt;
    return take(lock);
  }

  /// Wakes every blocked producer and consumer. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Reopens a closed channel for another run, dropping any item still
  /// queued (an aborted run's stranded work). Accounting is kept.
  void reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (; count_ > 0; --count_) {
      ring_[head_] = T{};
      head_ = (head_ + 1) % capacity_;
    }
    closed_ = false;
    if (depth_gauge_ != nullptr) depth_gauge_->set(0.0);
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Serializes queued items (oldest first) + accounting. `save_item` is
  /// invoked as `save_item(writer, item)` per queued element — the channel
  /// is a template, so element encoding belongs to the owner.
  template <typename SaveItem>
  void save_state(snapshot::StateWriter& w, SaveItem&& save_item) const {
    std::lock_guard<std::mutex> lock(mutex_);
    w.u64(capacity_);
    w.b(closed_);
    w.u32(static_cast<std::uint32_t>(count_));
    for (std::size_t i = 0; i < count_; ++i) {
      save_item(w, ring_[(head_ + i) % capacity_]);
    }
    w.u64(stats_.pushes);
    w.u64(stats_.pops);
    w.u64(stats_.push_stalls);
    w.u64(stats_.pop_stalls);
    w.u64(stats_.max_depth);
  }

  /// Restores queued items into an *empty* channel of the same capacity;
  /// `load_item` is invoked as `T load_item(reader)` per element. Capacity
  /// mismatch, a non-empty target or an element count beyond the capacity
  /// mark the reader failed.
  template <typename LoadItem>
  void load_state(snapshot::StateReader& r, LoadItem&& load_item) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t capacity = r.u64();
    const bool was_closed = r.b();
    const std::uint32_t queued = r.u32();
    if (!r.ok() || capacity != capacity_ || count_ != 0 ||
        queued > capacity_) {
      r.fail();
      return;
    }
    for (std::uint32_t i = 0; i < queued; ++i) {
      ring_[(head_ + count_) % capacity_] = load_item(r);
      if (!r.ok()) return;
      ++count_;
    }
    closed_ = was_closed;
    stats_.pushes = r.u64();
    stats_.pops = r.u64();
    stats_.push_stalls = r.u64();
    stats_.pop_stalls = r.u64();
    stats_.max_depth = static_cast<std::size_t>(r.u64());
    if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<double>(count_));
  }

 private:
  void note_push() {
    ++stats_.pushes;
    stats_.max_depth = std::max(stats_.max_depth, count_);
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(count_));
    }
  }

  std::optional<T> take(std::unique_lock<std::mutex>& lock) {
    std::optional<T> item(std::move(ring_[head_]));
    head_ = (head_ + 1) % capacity_;
    --count_;
    ++stats_.pops;
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(count_));
    }
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;   // analyze:transient - sync primitive
  std::condition_variable not_empty_;  // analyze:transient - sync primitive
  std::vector<T> ring_;       // fixed ring; moved-from slots stay constructed
  std::size_t head_ = 0;      // index of the oldest queued item
  std::size_t count_ = 0;     // queued items
  bool closed_ = false;
  ChannelStats stats_{};
  // analyze:transient - obs handles, re-resolved at construction
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* push_stall_counter_ = nullptr;  // analyze:transient - obs handle
  obs::Counter* pop_stall_counter_ = nullptr;   // analyze:transient - obs handle
};

}  // namespace biosense
