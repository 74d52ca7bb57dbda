// Fixed-capacity recycling pool for the streaming pipeline's frame buffers.
//
// The pool owns at most `capacity` objects, created lazily on first use (or
// all at once by `materialize`) and recycled forever after: steady-state
// acquisition is a free-list pop, so a pipeline that keeps its buffers
// size-stable (vector::assign never shrinks capacity) performs zero heap
// allocation per frame once warm. The stats
// make that claim checkable — `allocations` counts object creations (the
// warm-up cost, bounded by the capacity), `hits` counts recycled handouts,
// and `exhaustion_stalls` counts the blocking episodes where every buffer
// was in flight (the pool's backpressure signal).
//
// Handles are RAII: destroying (or `release()`-ing) a handle returns the
// buffer to the free list without destroying the object, so its heap
// storage survives for the next frame. The pool must outlive its handles.
//
// Shutdown: `close()` wakes blocked acquirers, which then receive empty
// handles — the pipeline's abort path. Releases after close still recycle
// quietly so in-flight handles unwind safely.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace biosense {

/// Snapshot of one pool's recycling and backpressure accounting.
struct FramePoolStats {
  std::uint64_t acquires = 0;           // successful handouts
  std::uint64_t allocations = 0;        // objects created (pool misses)
  std::uint64_t hits = 0;               // recycled handouts
  std::uint64_t exhaustion_stalls = 0;  // blocking episodes, pool empty
};

template <typename T>
class FramePool {
 public:
  class Handle {
   public:
    Handle() = default;
    Handle(FramePool* pool, std::unique_ptr<T> object)
        : pool_(pool), object_(std::move(object)) {}
    Handle(Handle&& other) noexcept
        : pool_(other.pool_), object_(std::move(other.object_)) {
      other.pool_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        object_ = std::move(other.object_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    explicit operator bool() const { return object_ != nullptr; }
    T& operator*() const { return *object_; }
    T* operator->() const { return object_.get(); }
    T* get() const { return object_.get(); }

    /// Returns the buffer to the pool now (destructor equivalent).
    void release() {
      if (pool_ != nullptr && object_ != nullptr) {
        pool_->recycle(std::move(object_));
      }
      pool_ = nullptr;
      object_.reset();
    }

   private:
    FramePool* pool_ = nullptr;
    std::unique_ptr<T> object_;
  };

  /// A zero capacity is clamped to 1. `name`, when non-empty, registers
  /// `<name>.available` (gauge) and `<name>.exhaustion_stalls` (counter)
  /// with the global registry.
  explicit FramePool(std::size_t capacity, const std::string& name = {})
      : capacity_(capacity == 0 ? 1 : capacity) {
    free_.reserve(capacity_);
    if (!name.empty()) {
      auto& registry = obs::Registry::global();
      available_gauge_ = &registry.gauge(name + ".available");
      stall_counter_ = &registry.counter(name + ".exhaustion_stalls");
    }
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Blocks while every buffer is in flight. Returns an empty handle once
  /// the pool is closed.
  Handle acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (free_.empty() && created_ >= capacity_ && !closed_) {
      ++stats_.exhaustion_stalls;
      if (stall_counter_ != nullptr) stall_counter_->add(1);
      available_.wait(lock, [this] {
        return !free_.empty() || created_ < capacity_ || closed_;
      });
    }
    return take(lock);
  }

  /// Non-blocking acquire; empty handle when exhausted or closed.
  Handle try_acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (free_.empty() && created_ >= capacity_) return Handle{};
    return take(lock);
  }

  /// Wakes blocked acquirers; they and all later acquires receive empty
  /// handles. In-flight handles still recycle safely. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    available_.notify_all();
  }

  /// Creates every object not yet created, hands each to `shape` (sizing
  /// its buffers) and parks it on the free list. After this no acquire
  /// allocates, however far a producer runs ahead of its consumers.
  /// `shape` runs under the pool's lock and must not call back into it.
  template <typename Shape>
  void materialize(Shape&& shape) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (; created_ < capacity_; ++created_) {
      auto object = std::make_unique<T>();
      shape(*object);
      free_.push_back(std::move(object));
      ++stats_.allocations;
    }
    update_gauge();
  }

  /// Reopens a closed pool for the next run. Callable only once every
  /// handle has been returned (the owning pipeline has fully unwound);
  /// recycled buffers are kept, so the warm-up cost is not paid again.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    require(free_.size() == created_,
            "FramePool: reset with handles still in flight");
    closed_ = false;
  }

  std::size_t available() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size() + (capacity_ - created_);
  }

  FramePoolStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Serializes the pool's accounting. Only legal on a quiesced pool
  /// (every handle returned) — frame *contents* are stage scratch, so a
  /// quiesced pool's state is exactly its capacity and stats.
  void save_state(snapshot::StateWriter& w) const {
    std::lock_guard<std::mutex> lock(mutex_);
    w.u64(capacity_);
    w.b(free_.size() == created_);  // quiesced marker, checked on load
    w.u64(stats_.acquires);
    w.u64(stats_.allocations);
    w.u64(stats_.hits);
    w.u64(stats_.exhaustion_stalls);
  }

  /// Restores accounting into a pool of the same capacity. A capacity
  /// mismatch or a snapshot taken mid-flight marks the reader failed.
  void load_state(snapshot::StateReader& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t capacity = r.u64();
    const bool quiesced = r.b();
    if (!r.ok() || capacity != capacity_ || !quiesced ||
        free_.size() != created_) {
      r.fail();
      return;
    }
    stats_.acquires = r.u64();
    stats_.allocations = r.u64();
    stats_.hits = r.u64();
    stats_.exhaustion_stalls = r.u64();
  }

 private:
  friend class Handle;

  Handle take(std::unique_lock<std::mutex>& lock) {
    if (closed_) return Handle{};
    if (!free_.empty()) {
      std::unique_ptr<T> object = std::move(free_.back());
      free_.pop_back();
      ++stats_.acquires;
      ++stats_.hits;
      update_gauge();
      lock.unlock();
      return Handle(this, std::move(object));
    }
    if (created_ < capacity_) {
      ++created_;
      ++stats_.acquires;
      ++stats_.allocations;
      update_gauge();
      lock.unlock();
      return Handle(this, std::make_unique<T>());
    }
    return Handle{};  // raced with another acquirer after the wait
  }

  void recycle(std::unique_ptr<T> object) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      free_.push_back(std::move(object));
      update_gauge();
    }
    available_.notify_one();
  }

  void update_gauge() {
    if (available_gauge_ != nullptr) {
      available_gauge_->set(
          static_cast<double>(free_.size() + (capacity_ - created_)));
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable available_;  // analyze:transient - sync primitive
  std::vector<std::unique_ptr<T>> free_;
  std::size_t created_ = 0;
  bool closed_ = false;  // analyze:transient - teardown flag; a restored pool starts open
  FramePoolStats stats_{};
  obs::Gauge* available_gauge_ = nullptr;  // analyze:transient - obs handle
  obs::Counter* stall_counter_ = nullptr;  // analyze:transient - obs handle
};

}  // namespace biosense
