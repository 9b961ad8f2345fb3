// Dynamic micro-batching policy: flush on batch-size *or* virtual
// deadline, whichever comes first.
//
// The policy is a pure function of (queue contents, virtual clock, engine
// idleness) so it can be unit-tested without an engine and so the batch
// decomposition of a request stream is reproducible from the stream alone:
//   * size trigger   — the queue holds at least `batch_max` requests;
//   * deadline trigger — the oldest queued request has waited
//     `flush_wait_us` of virtual time (its micro-batch window expired);
// and a batch only forms while the engine is idle in virtual time, which
// is what makes the bounded queue fill up — and reject — under overload.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/queue.hpp"

namespace orev::serve {

struct BatcherConfig {
  /// Largest batch a single flush may form.
  int batch_max = 32;
  /// Virtual microseconds the oldest request may wait before a partial
  /// batch is flushed anyway.
  std::uint64_t flush_wait_us = 2000;
};

/// Why a batch flushed — labels the batch span in the causal trace.
enum class FlushTrigger {
  kNone = 0,  // no flush due
  kSize,      // queue reached batch_max
  kDeadline,  // oldest request's micro-batch window expired
  kDrain,     // forced flush (engine drain)
};

const char* flush_trigger_name(FlushTrigger t);

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherConfig cfg);

  const BatcherConfig& config() const { return cfg_; }

  /// True when the queue front should flush at `virtual_now_us`.
  /// `engine_idle` gates both triggers: a busy engine never flushes, so
  /// arrivals back up into the bounded queue instead.
  bool should_flush(const BoundedQueue& q, std::uint64_t virtual_now_us,
                    bool engine_idle) const;

  /// Which trigger fires at `virtual_now_us` (kNone when should_flush
  /// would return false). Size wins when both have fired.
  FlushTrigger flush_trigger(const BoundedQueue& q,
                             std::uint64_t virtual_now_us,
                             bool engine_idle) const;

  /// Remove up to `batch_max` requests from the queue front, preserving
  /// arrival order, into slots [0, k) of a reused buffer (grown, never
  /// shrunk): requests are swapped in, so buffers cycle between the queue
  /// and `slots` without allocating. Returns k.
  std::size_t take_batch(BoundedQueue& q,
                         std::vector<ServeRequest>& slots) const;

 private:
  BatcherConfig cfg_;
};

}  // namespace orev::serve
