// A FIFO queue on one power-of-two ring buffer.
//
// std::deque allocates a fresh chunk every few elements as a queue streams
// through it and frees the chunk behind it, so a steady producer/consumer
// pair allocates forever.  The ring grows only when the queue is longer than
// it has ever been, so a steady stream costs no allocation, and an idle
// queue holds no storage at all (a deque holds a chunk).  Used for the
// interrupt queue, the link's transmit queue, the socket queues, the disk's
// request queue and the splice ring's submission and completion queues.

#ifndef SRC_SIM_FIFO_H_
#define SRC_SIM_FIFO_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace ikdp {

template <typename T>
class Fifo {
 public:
  // `capacity` (0 or a power of two) slots up front: a short-lived queue of
  // known depth allocates once, not once per doubling.
  explicit Fifo(size_t capacity = 0) : ring_(capacity) { assert((capacity & (capacity - 1)) == 0); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // The i-th oldest element.
  const T& operator[](size_t i) const {
    assert(i < size_);
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(v);
    ++size_;
  }

  // Removes and returns the oldest element; its slot is left empty (T{}),
  // so the ring never pins a released resource.
  T pop_front() {
    assert(size_ > 0);
    T v = std::exchange(ring_[head_], T{});
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return v;
  }

 private:
  void Grow() {
    std::vector<T> next(ring_.empty() ? 1 : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ikdp

#endif  // SRC_SIM_FIFO_H_
