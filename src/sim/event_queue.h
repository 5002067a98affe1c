// A cancellable priority queue of timed events.
//
// This is the heart of the discrete-event engine.  Events are closures tagged
// with a firing time; ties are broken by insertion order so the simulation is
// fully deterministic.  Cancellation is lazy: a cancelled event stays in the
// heap but is skipped when popped, which keeps both schedule and cancel at
// O(log n) without a secondary index.
//
// Same-timestamp tie-breaks are the ONLY schedule freedom the modelled
// kernel has (events at distinct times are ordered by the clock), so each
// entry carries a tie key from KraceDetector::TieKey under the queue's
// seed: insertion order for seed 0 (the default), a seeded permutation of
// it in perturbation mode (see src/sim/krace.h).  Every key order is a
// legal schedule — an event scheduled by a same-timestamp event still runs
// after its creator, because the creator had already been popped when it
// scheduled.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/sim/time.h"

namespace ikdp {

// Identifies a scheduled event so it can be cancelled.  Ids are never reused
// within one EventQueue instance.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  explicit EventQueue(uint64_t tie_seed = 0) : tie_seed_(tie_seed) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to fire at absolute time `when`.  Returns an id usable
  // with Cancel().  Events scheduled for the same time fire in insertion
  // order.
  EventId Schedule(SimTime when, std::function<void()> fn);

  // Cancels a previously scheduled event.  Returns true if the event existed
  // and had not yet fired (or been cancelled).
  bool Cancel(EventId id);

  // True when no live (non-cancelled) events remain.
  bool empty() const { return live_.empty(); }

  // Number of live events.
  size_t size() const { return live_.size(); }

  // The firing time of the earliest live event.  Must not be called on an
  // empty queue.
  SimTime NextTime();

  // Pops and returns the earliest live event's closure, setting `*when` to
  // its firing time and (when non-null) `*id` to its EventId.  Must not be
  // called on an empty queue.
  std::function<void()> PopNext(SimTime* when, EventId* id = nullptr);

 private:
  struct Entry {
    SimTime when = 0;
    EventId id = kInvalidEventId;  // doubles as the insertion sequence number
    uint64_t key = 0;              // same-timestamp tie-break (== id unless perturbed)
    std::function<void()> fn;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      if (a.key != b.key) {
        return a.key > b.key;
      }
      return a.id > b.id;
    }
  };

  // Drops cancelled entries from the top of the heap.
  void SkipCancelled();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<EventId> live_;
  std::unordered_set<EventId> cancelled_;
  EventId next_seq_ = 0;
  uint64_t tie_seed_;
};

}  // namespace ikdp

#endif  // SRC_SIM_EVENT_QUEUE_H_
