// Streaming consumer interface: the pipeline-facing replacement for
// "return the whole vector".
//
// A `StreamSink<T>` receives items one at a time, in order, on a single
// thread (the pipeline's sink stage delivers in frame order regardless of
// how many workers ran upstream). Items arrive by const reference and are
// recycled after the call returns — a sink that wants to keep one copies
// it, as the retained `record()`/`run()` wrappers do through `FunctionSink`.
#pragma once

#include <functional>
#include <utility>
#include <vector>

namespace biosense {

template <typename T>
class StreamSink {
 public:
  virtual ~StreamSink() = default;

  /// One item, delivered in stream order. The referenced storage is reused
  /// after the call returns; copy to retain.
  virtual void on_item(const T& item) = 0;

  /// End of stream: called exactly once, after the last item, on the same
  /// thread that delivered it. Not called when the producer throws.
  virtual void on_end() {}
};

/// Adapter for ad-hoc consumers (examples, tests) without a sink subclass.
template <typename T>
class FunctionSink final : public StreamSink<T> {
 public:
  explicit FunctionSink(std::function<void(const T&)> fn)
      : fn_(std::move(fn)) {}

  void on_item(const T& item) override { fn_(item); }

 private:
  std::function<void(const T&)> fn_;
};

}  // namespace biosense
