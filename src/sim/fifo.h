// The two FIFO queues of the simulator, one per job:
//
//  * Fifo<T> queues VALUES on one power-of-two ring buffer: the interrupt
//    queue, the link's transmit queue, the socket queues, the disk's request
//    queue, the splice ring's submission and completion queues, and the free
//    list of a SlotPool (src/sim/slot_pool.h).  std::deque allocates a fresh
//    chunk every few elements as a queue streams through it and frees the
//    chunk behind it, so a steady producer/consumer pair allocates forever.
//    The ring grows only when the queue is longer than it has ever been, so
//    a steady stream costs no allocation, and an idle queue holds no storage
//    at all (a deque holds a chunk).
//
//  * IntrusiveFifo<T, &T::link> queues OBJECTS that already live somewhere
//    stable (a SlotPool slot) by threading them through one of their own
//    pointer members, like the <sys/queue.h> STAILQ macros: the splice ring's
//    free, queued and retired ops, a splice descriptor's ready chunks, and
//    the server's per-client request and delivery queues.  Queueing never
//    allocates, and an object can sit on one queue per link member.

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

// A FIFO of objects chained through their `Link` member.  The link is
// meaningful only while the object is on the queue; it is null once popped
// or erased.
template <typename T, T* T::*Link>
class IntrusiveFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  T* front() const { return head_; }

  void push_back(T* e) {
    e->*Link = nullptr;
    (tail_ == nullptr ? head_ : tail_->*Link) = e;
    tail_ = e;
  }

  void push_front(T* e) {
    e->*Link = head_;
    head_ = e;
    if (tail_ == nullptr) {
      tail_ = e;
    }
  }

  T* pop_front() {
    assert(head_ != nullptr);
    T* e = head_;
    head_ = e->*Link;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    e->*Link = nullptr;
    return e;
  }

  // Unlinks `e` wherever it is on the queue; false if it is not on it.
  bool Erase(T* e) {
    T* prev = nullptr;
    for (T* c = head_; c != e; c = c->*Link) {
      if (c == nullptr) {
        return false;
      }
      prev = c;
    }
    (prev == nullptr ? head_ : prev->*Link) = e->*Link;
    if (tail_ == e) {
      tail_ = prev;
    }
    e->*Link = nullptr;
    return true;
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
};

}  // namespace ikdp

#endif  // SRC_SIM_FIFO_H_
