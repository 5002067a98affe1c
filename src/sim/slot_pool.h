// Objects in recycled slots at stable addresses.
//
// The kernel's fixed tables (ring ops, splice descriptors and their chunk
// slots, transient buffer headers, frames on the wire, the server's live
// requests) take a slot when an object starts and give it back when it is
// done, the way the paper's modified getblk hands out a bare header instead
// of fresh memory (Section 5.2.3).  A slot is created on first use and
// recycled, oldest released first, after that, so a pool holds its peak
// count of live objects and a steady stream allocates nothing.
//
// Addresses never move, so queues (IntrusiveFifo, src/sim/fifo.h) and
// callbacks may hold them.  A released slot holds a default-constructed T
// until it is taken again: a stale reference reads a reset object, never
// freed memory, and a user that must tell generations apart compares a
// serial it stored in the object.

#ifndef SRC_SIM_SLOT_POOL_H_
#define SRC_SIM_SLOT_POOL_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/sim/fifo.h"

namespace ikdp {

template <typename T>
class SlotPool {
 public:
  // A slot holding a default-constructed T.
  T* Acquire() {
    T* slot;
    if (free_.empty()) {
      slots_.push_back(std::make_unique<T>());
      slot = slots_.back().get();
    } else {
      slot = free_.pop_front();
    }
    peak_ = std::max(peak_, ++live_);
    return slot;
  }

  // Resets `slot` to a default-constructed T and queues it for reuse.
  void Release(T* slot) {
    assert(live_ > 0);
    std::destroy_at(slot);
    std::construct_at(slot);
    free_.push_back(slot);
    --live_;
  }

  // Slots taken and not yet released, and the most there have been at once.
  size_t live() const { return live_; }
  size_t peak() const { return peak_; }

  // Calls `fn` on every slot, live or released, in the order they were
  // created.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (const std::unique_ptr<T>& slot : slots_) {
      fn(*slot);
    }
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  Fifo<T*> free_;
  size_t live_ = 0;
  size_t peak_ = 0;
};

}  // namespace ikdp

#endif  // SRC_SIM_SLOT_POOL_H_
