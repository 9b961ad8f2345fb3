// Bounded admission queue for the serving engine.
//
// The queue is the backpressure mechanism: a full queue rejects the
// incoming request at admission (the caller then sheds it or degrades to
// synchronous inference) instead of letting latency grow without bound.
// Arrival order is preserved — requests leave in exactly the order they
// were admitted, which is one of the two ingredients of the engine's
// determinism (the other is the batch decomposition; see engine.hpp).
#pragma once

#include <cstddef>

#include "serve/request.hpp"
#include "util/ring.hpp"

namespace orev::serve {

class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity);

  /// Admit a request; false when the queue is at capacity (the request is
  /// left untouched so the caller can still serve or shed it).
  bool push(ServeRequest&& r);

  /// Admit into a recycled slot: the caller assigns every field of the
  /// returned request (its buffers are those of an earlier request, so
  /// assigning a same-shaped input allocates nothing). Queue must not be
  /// full.
  ServeRequest& push_slot();

  /// Oldest admitted request. Queue must be non-empty.
  const ServeRequest& front() const;

  /// Remove and return the oldest admitted request.
  ServeRequest pop();

  /// Swap the oldest request into `out` and remove it: `out`'s previous
  /// buffers go back into the queue for reuse.
  void pop_swap(ServeRequest& out);

  bool empty() const { return q_.empty(); }
  bool full() const { return q_.full(); }
  std::size_t size() const { return q_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// High-water mark of the queue depth since construction.
  std::size_t max_depth() const { return max_depth_; }

 private:
  std::size_t capacity_;
  std::size_t max_depth_ = 0;
  util::Ring<ServeRequest> q_;
};

}  // namespace orev::serve
