#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

#include "src/sim/krace.h"

namespace ikdp {

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = pos_[slot];
  } else {
    assert(slots_.size() < (size_t{1} << kSlotBits) && "EventQueue slot arena full");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    pos_.push_back(0);
  }
  const uint64_t seq = ++next_seq_;
  assert(seq < (uint64_t{1} << (64 - kSlotBits)) && "EventQueue sequence overflow");
  const EventId id = seq << kSlotBits | slot;
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Node{when, KraceDetector::TieKey(tie_seed_, seq), id});
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // An id is cancellable only while its slot still holds it (scheduled, not
  // yet fired and not already cancelled).
  const uint32_t slot = SlotOf(id);
  if (id == kInvalidEventId || slot >= slots_.size() || slots_[slot].id != id) {
    return false;
  }
  // The closure dies after the node is gone, so a destructor that touches
  // the queue sees it consistent.
  const EventFn doomed = std::move(slots_[slot].fn);
  RemoveAt(pos_[slot]);
  return true;
}

SimTime EventQueue::NextTime() const {
  assert(!heap_.empty() && "NextTime() on empty EventQueue");
  return heap_.front().when;
}

EventFn EventQueue::PopNext(SimTime* when, EventId* id) {
  assert(!heap_.empty() && "PopNext() on empty EventQueue");
  const Node top = heap_.front();
  EventFn fn = std::move(slots_[SlotOf(top.id)].fn);
  *when = top.when;
  if (id != nullptr) {
    *id = top.id;
  }
  RemoveAt(0);
  return fn;
}

void EventQueue::SiftUp(size_t i, Node n) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(n, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, n);
}

void EventQueue::SiftDown(size_t i, Node n) {
  const size_t size = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], n)) {
      break;
    }
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, n);
}

void EventQueue::RemoveAt(size_t i) {
  const uint32_t slot = SlotOf(heap_[i].id);
  slots_[slot].id = kInvalidEventId;
  pos_[slot] = free_head_;
  free_head_ = slot;
  const Node last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;  // removed the last node
  }
  if (i > 0 && Before(last, heap_[(i - 1) / 2])) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

}  // namespace ikdp
