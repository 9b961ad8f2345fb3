#include "serve/queue.hpp"

#include <utility>

#include "util/check.hpp"

namespace orev::serve {

BoundedQueue::BoundedQueue(std::size_t capacity)
    : capacity_(capacity), q_(capacity) {
  OREV_CHECK(capacity >= 1, "serve queue capacity must be >= 1");
}

bool BoundedQueue::push(ServeRequest&& r) {
  if (q_.full()) return false;
  push_slot() = std::move(r);
  return true;
}

ServeRequest& BoundedQueue::push_slot() {
  ServeRequest& slot = q_.push_slot();
  if (q_.size() > max_depth_) max_depth_ = q_.size();
  return slot;
}

const ServeRequest& BoundedQueue::front() const {
  OREV_CHECK(!q_.empty(), "front() on an empty serve queue");
  return q_.front();
}

ServeRequest BoundedQueue::pop() {
  OREV_CHECK(!q_.empty(), "pop() on an empty serve queue");
  ServeRequest r = std::move(q_.front());
  q_.pop_front();
  return r;
}

void BoundedQueue::pop_swap(ServeRequest& out) {
  OREV_CHECK(!q_.empty(), "pop_swap() on an empty serve queue");
  std::swap(out, q_.front());
  q_.pop_front();
}

}  // namespace orev::serve
