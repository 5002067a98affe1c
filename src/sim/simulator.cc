#include "src/sim/simulator.h"

#include <cassert>
#include <utility>

namespace ikdp {

Simulator::Simulator()
    : enclosing_(&CurrentSimState()),
      state_(enclosing_),
      queue_(state_.krace.perturb_seed()) {
  SwapCurrentSimState(&state_);
}

Simulator::~Simulator() {
  assert(&CurrentSimState() == &state_ &&
         "Simulators must be destroyed in reverse order of construction");
  state_.FoldInto(enclosing_);
  SwapCurrentSimState(enclosing_);
}

EventId Simulator::After(SimDuration delay, EventFn fn) {
  if (delay < 0) {
    delay = 0;
  }
  return At(now_ + delay, std::move(fn));
}

EventId Simulator::At(SimTime when, EventFn fn) {
  assert(when >= now_ && "scheduling into the past");
  const EventId id = queue_.Schedule(when, std::move(fn));
  if (state_.krace.enabled()) {
    // Schedule edge: the currently executing event happens-before `id`.
    state_.krace.OnSchedule(id, when);
  }
  return id;
}

bool Simulator::Cancel(EventId id) {
  const bool live = queue_.Cancel(id);
  if (live && state_.krace.enabled()) {
    state_.krace.OnCancel(id);
  }
  return live;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  SimTime when = 0;
  EventId id = kInvalidEventId;
  EventFn fn = queue_.PopNext(&when, &id);
  assert(when >= now_ && "event queue went backwards");
  now_ = when;
  ++events_executed_;
  SimState* const prev = SwapCurrentSimState(&state_);
  if (state_.krace.enabled()) {
    state_.krace.OnEventBegin(id, when);
    fn();
    state_.krace.OnEventEnd();
  } else {
    fn();
  }
  SwapCurrentSimState(prev);
  return true;
}

}  // namespace ikdp
