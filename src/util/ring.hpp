// Fixed-capacity FIFO ring whose slots are recycled, not reallocated.
//
// push_slot() hands back the slot the next element lives in: a fresh
// default-constructed one while the ring is still growing toward its
// capacity, afterwards the storage of an element popped earlier, with
// whatever buffers it still owns. Callers assign the new element's fields
// into it, so strings and tensors of a steady-state stream reuse their
// capacity and the ring allocates nothing once it has filled once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace orev::util {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Element `i` counted from the oldest.
  T& operator[](std::size_t i) { return slots_[slot(i)]; }
  const T& operator[](std::size_t i) const { return slots_[slot(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Slot of a new newest element; the ring must not be full.
  T& push_slot() {
    OREV_CHECK(!full(), "push_slot on a full ring");
    if (slots_.size() < capacity_ && size_ == slots_.size()) {
      // Still growing: straighten a wrapped ring so the new slot lands
      // after the newest element.
      if (head_ != 0) {
        std::rotate(slots_.begin(), slots_.begin() + head_, slots_.end());
        head_ = 0;
      }
      slots_.emplace_back();
    }
    ++size_;
    return back();
  }

  /// Drop the oldest element (its slot keeps its buffers for reuse).
  void pop_front() {
    OREV_CHECK(size_ > 0, "pop_front on an empty ring");
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --size_;
  }

  /// Change the capacity; shrinking below size() drops the oldest
  /// elements. Returns how many were dropped.
  std::size_t set_capacity(std::size_t capacity) {
    std::size_t dropped = 0;
    for (; size_ > capacity; ++dropped) pop_front();
    if (slots_.size() > capacity) {
      std::rotate(slots_.begin(), slots_.begin() + head_, slots_.end());
      head_ = 0;
      slots_.resize(capacity);
    }
    capacity_ = capacity;
    return dropped;
  }

  /// Drop every element, keeping the slots.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Forward iterator, oldest element first.
  template <class Ref, class Owner>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::remove_reference_t<Ref>*;
    using reference = Ref;
    Iter() = default;
    Iter(Owner* r, std::size_t i) : r_(r), i_(i) {}
    Ref operator*() const { return (*r_)[i_]; }
    pointer operator->() const { return &(*r_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter t = *this;
      ++i_;
      return t;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    Owner* r_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<T&, Ring>;
  using const_iterator = Iter<const T&, const Ring>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::size_t slot(std::size_t i) const {
    const std::size_t at = head_ + i;
    return at >= slots_.size() ? at - slots_.size() : at;
  }

  std::size_t capacity_;
  std::vector<T> slots_;  // slots_[head_] holds the oldest element
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace orev::util
