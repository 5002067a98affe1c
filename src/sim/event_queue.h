// A cancellable priority queue of timed events.
//
// This is the heart of the discrete-event engine.  Events are closures tagged
// with a firing time; ties are broken by a per-event key so the simulation is
// fully deterministic.  The queue allocates nothing per event in the steady
// state:
//
//   * closures live in a slot arena, each stored inline in an EventFn (heap
//     storage only for captures larger than EventFn::kInlineSize); a fired or
//     cancelled event's slot goes on a free list and is reused, so the arena
//     holds O(pending events), not O(events ever scheduled);
//   * the heap orders small trivially-copyable {when, key, id} nodes, and
//     each live slot records its node's heap position, so Cancel finds and
//     removes its node directly from the id (no hashing, no tombstones) and
//     destroys the closure at once.
//
// An EventId is `seq << kSlotBits | slot`: `seq` counts Schedule calls from 1,
// so ids are strictly increasing in schedule order and never reused within
// one queue; `slot` names the arena slot.  A slot remembers the id it holds,
// so a stale id (fired, cancelled, or never issued) is refused by Cancel.
//
// Same-timestamp tie-breaks are the ONLY schedule freedom the modelled
// kernel has (events at distinct times are ordered by the clock), so each
// node carries a tie key from KraceDetector::TieKey(seed, seq) under the
// queue's seed: schedule order for seed 0 (the default), a seeded
// permutation of it in perturbation mode (see src/sim/krace.h).  The firing
// order is (when, key, seq).  Every key order is a legal schedule — an event
// scheduled by a same-timestamp event still runs after its creator, because
// the creator had already been popped when it scheduled.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace ikdp {

// Identifies a scheduled event so it can be cancelled.  Ids are strictly
// increasing in schedule order and never reused within one EventQueue.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// Bits of an EventId that name the arena slot; the rest are the schedule
// sequence number.  24 bits allow 16M simultaneously pending events and
// 2^40 events per queue.
inline constexpr int kSlotBits = 24;

// The schedule sequence number of `id` (1 for the first event scheduled on
// a queue): what krace reports print.
inline constexpr uint64_t EventSeq(EventId id) { return id >> kSlotBits; }

class EventQueue {
 public:
  explicit EventQueue(uint64_t tie_seed = 0) : tie_seed_(tie_seed) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to fire at absolute time `when`.  Returns an id usable
  // with Cancel().  Events scheduled for the same time fire in tie-key
  // order (schedule order under seed 0).
  EventId Schedule(SimTime when, EventFn fn);

  // Cancels a previously scheduled event, destroying its closure.  Returns
  // true if the event existed and had not yet fired (or been cancelled).
  bool Cancel(EventId id);

  // True when no events are pending.
  bool empty() const { return heap_.empty(); }

  // Number of pending events.
  size_t size() const { return heap_.size(); }

  // The firing time of the earliest pending event.  Must not be called on
  // an empty queue.
  SimTime NextTime() const;

  // Pops and returns the earliest event's closure, setting `*when` to its
  // firing time and (when non-null) `*id` to its EventId.  Must not be
  // called on an empty queue.
  EventFn PopNext(SimTime* when, EventId* id = nullptr);

  // Arena slots ever allocated: the high-water mark of pending events.
  size_t arena_slots() const { return slots_.size(); }

 private:
  struct Node {
    SimTime when;
    uint64_t key;  // same-timestamp tie-break (== seq unless perturbed)
    EventId id;    // seq in the high bits: the final tie-break
  };

  // A free slot has id == kInvalidEventId.
  struct Slot {
    EventFn fn;
    EventId id = kInvalidEventId;
  };

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  static bool Before(const Node& a, const Node& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.key != b.key) {
      return a.key < b.key;
    }
    return a.id < b.id;
  }

  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  }

  // Stores `n` at heap index `i` and records the position in its slot.
  void Place(size_t i, const Node& n) {
    heap_[i] = n;
    pos_[SlotOf(n.id)] = static_cast<uint32_t>(i);
  }

  void SiftUp(size_t i, Node n);
  void SiftDown(size_t i, Node n);
  // Removes the node at heap index `i` and frees its slot, whose closure
  // the caller has already moved out.
  void RemoveAt(size_t i);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  // Per slot: the heap index of its node while live, the next free slot
  // (or kNoSlot) while free.
  std::vector<uint32_t> pos_;
  uint32_t free_head_ = kNoSlot;
  uint64_t next_seq_ = 0;
  uint64_t tie_seed_;
};

}  // namespace ikdp

#endif  // SRC_SIM_EVENT_QUEUE_H_
