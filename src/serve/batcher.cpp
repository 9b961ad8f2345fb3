#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace orev::serve {

const char* flush_trigger_name(FlushTrigger t) {
  switch (t) {
    case FlushTrigger::kNone: return "none";
    case FlushTrigger::kSize: return "size";
    case FlushTrigger::kDeadline: return "deadline";
    case FlushTrigger::kDrain: return "drain";
  }
  return "unknown";
}

MicroBatcher::MicroBatcher(BatcherConfig cfg) : cfg_(cfg) {
  OREV_CHECK(cfg_.batch_max >= 1, "batch_max must be >= 1");
}

bool MicroBatcher::should_flush(const BoundedQueue& q,
                                std::uint64_t virtual_now_us,
                                bool engine_idle) const {
  return flush_trigger(q, virtual_now_us, engine_idle) != FlushTrigger::kNone;
}

FlushTrigger MicroBatcher::flush_trigger(const BoundedQueue& q,
                                         std::uint64_t virtual_now_us,
                                         bool engine_idle) const {
  if (q.empty() || !engine_idle) return FlushTrigger::kNone;
  if (q.size() >= static_cast<std::size_t>(cfg_.batch_max))
    return FlushTrigger::kSize;
  if (virtual_now_us >= q.front().arrival_us + cfg_.flush_wait_us)
    return FlushTrigger::kDeadline;
  return FlushTrigger::kNone;
}

std::size_t MicroBatcher::take_batch(BoundedQueue& q,
                                     std::vector<ServeRequest>& slots) const {
  const std::size_t k =
      std::min(q.size(), static_cast<std::size_t>(cfg_.batch_max));
  if (slots.size() < k) slots.resize(k);
  for (std::size_t i = 0; i < k; ++i) q.pop_swap(slots[i]);
  return k;
}

}  // namespace orev::serve
