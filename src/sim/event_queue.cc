#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

#include "src/sim/krace.h"

namespace ikdp {

EventId EventQueue::Schedule(SimTime when, std::function<void()> fn) {
  const EventId id = ++next_seq_;
  heap_.push(Entry{when, id, KraceDetector::TieKey(tie_seed_, id), std::move(fn)});
  live_.insert(id);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // An id is cancellable only while it is live (scheduled, not yet fired and
  // not already cancelled).
  if (live_.erase(id) == 0) {
    return false;
  }
  cancelled_.insert(id);
  return true;
}

void EventQueue::SkipCancelled() {
  while (!heap_.empty() && cancelled_.count(heap_.top().id) > 0) {
    cancelled_.erase(heap_.top().id);
    heap_.pop();
  }
}

SimTime EventQueue::NextTime() {
  SkipCancelled();
  assert(!heap_.empty() && "NextTime() on empty EventQueue");
  return heap_.top().when;
}

std::function<void()> EventQueue::PopNext(SimTime* when, EventId* id) {
  SkipCancelled();
  assert(!heap_.empty() && "PopNext() on empty EventQueue");
  // priority_queue::top() returns a const ref; moving the closure out
  // requires a const_cast.  The entry is popped immediately afterwards, so
  // the moved-from state is never observed.
  Entry& top = const_cast<Entry&>(heap_.top());
  std::function<void()> fn = std::move(top.fn);
  *when = top.when;
  if (id != nullptr) {
    *id = top.id;
  }
  live_.erase(top.id);
  heap_.pop();
  return fn;
}

}  // namespace ikdp
