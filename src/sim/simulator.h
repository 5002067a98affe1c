// The discrete-event simulator: a virtual clock plus an event queue.
//
// Every component of the simulated machine (disks, CPU scheduler, network
// links, the callout table) schedules closures on one shared Simulator.  The
// simulator advances time only between events; closures themselves run in
// zero simulated time.  Simulated CPU consumption is modelled explicitly by
// the kernel scheduler (src/kern/cpu.h), not by the event engine.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>

#include "src/sim/event_queue.h"
#include "src/sim/sim_state.h"
#include "src/sim/time.h"

namespace ikdp {

class Simulator {
 public:
  // A Simulator is one run: it owns the run's SimState, made current from
  // construction to destruction (src/sim/sim_state.h).  Simulators nest:
  // destroy them in reverse order of construction.
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now.  Negative delays are clamped to
  // zero (the event fires "immediately", i.e. after the current event and any
  // earlier-scheduled same-time events).
  EventId After(SimDuration delay, EventFn fn);

  // Schedules `fn` at an absolute time, which must not be in the past.
  EventId At(SimTime when, EventFn fn);

  // Cancels a scheduled event.  Returns true if it was still pending.
  bool Cancel(EventId id);

  // Runs events until the queue is empty.  Returns the final time.
  SimTime Run();

  // Runs events with firing time <= `deadline`, then sets the clock to
  // `deadline` (even if the queue still holds later events).  Returns the
  // final time (== deadline unless the queue drained earlier; the clock never
  // exceeds deadline).
  SimTime RunUntil(SimTime deadline);

  // Runs exactly one event if any is pending, with this run's state
  // current.  Returns false on an empty queue.
  bool Step();

  // True when no events are pending.
  bool Idle() const { return queue_.empty(); }

  // Number of pending events.
  size_t PendingEvents() const { return queue_.size(); }

  // Total events executed so far (for stats / runaway detection in tests).
  uint64_t events_executed() const { return events_executed_; }

 private:
  SimState* enclosing_;
  SimState state_;
  SimTime now_ = 0;
  EventQueue queue_;
  uint64_t events_executed_ = 0;
};

}  // namespace ikdp

#endif  // SRC_SIM_SIMULATOR_H_
