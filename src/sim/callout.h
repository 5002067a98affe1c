// The BSD kernel callout list, as used by the splice write side.
//
// In 4.2BSD-derived kernels (including Ultrix 4.2A), timeout(fn, arg, ticks)
// places an entry on the callout list; the softclock interrupt, driven by the
// hardware clock at `hz` ticks per second, walks expired entries at software
// interrupt priority.  The splice implementation "places a reference to the
// write handler at the head of the system callout list" (paper Section 5.2.2)
// so the write side runs at the *next softclock tick* rather than in the disk
// interrupt handler itself, decoupling the I/O access periods of the source
// and destination devices.
//
// This model exposes both the classic timeout()/untimeout() interface and the
// head-of-list scheduling splice relies on.  Callouts fire only on tick
// boundaries, which matters for pacing: scheduling at the head of the list
// still delays execution to the next tick edge.

#ifndef SRC_SIM_CALLOUT_H_
#define SRC_SIM_CALLOUT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/kern/ctx.h"
#include "src/kern/lock.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "callout" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define callout_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

// Identifies a pending callout so it can be removed with Untimeout().
using CalloutId = uint64_t;

inline constexpr CalloutId kInvalidCalloutId = 0;

class CalloutTable {
 public:
  // `hz` is the clock interrupt frequency.  Ultrix on the DECstation 5000
  // used hz = 256.
  CalloutTable(Simulator* sim, int hz);

  CalloutTable(const CalloutTable&) = delete;
  CalloutTable& operator=(const CalloutTable&) = delete;

  // Classic BSD timeout(): run `fn` after `ticks` clock ticks (>= 1).
  IKDP_CTX_ANY CalloutId Timeout(EventFn fn, int ticks);

  // Schedules `fn` at the head of the callout list: it fires at the next
  // softclock tick, before any other entry expiring on that tick.
  IKDP_CTX_ANY CalloutId ScheduleHead(EventFn fn);

  // Removes a pending callout.  Returns true if it had not yet fired.  Like
  // 4.2BSD untimeout(), walks the pending entries.
  IKDP_CTX_ANY bool Untimeout(CalloutId id);

  // Duration of one clock tick.
  SimDuration TickDuration() const { return tick_; }

  int hz() const { return hz_; }

  // Number of callouts currently pending (for tests).
  size_t Pending() const {
    SpinGuard g(lock_);
    return pending_;
  }

  // Total softclock activations (for stats).
  uint64_t softclock_runs() const { return softclock_runs_; }

  // Attaches a trace log recording kCalloutArm / kSoftclockRun events
  // (nullptr detaches; default off).  Kernel::AttachTrace wires this.
  void set_trace(TraceLog* trace) { trace_ = trace; }

 private:
  struct Entry {
    CalloutId id;
    EventFn fn;
    bool head;  // head-of-list entries run before FIFO entries on the tick
  };

  // The callouts expiring on one tick, and the softclock event armed for it.
  // A bucket exists exactly while it holds entries.
  struct Bucket {
    SimTime when;
    EventId armed;
    std::vector<Entry> entries;  // run order: head entries, then FIFO
  };

  // The absolute time of the next tick edge strictly after `now`.
  SimTime NextTickAfter(SimTime now) const;

  // The bucket for tick time `when`, created (with its softclock event
  // armed, and entry storage reused from a drained bucket) if absent.
  // Called with the callout lock held (IKDP_REQUIRES seeds the kcheck
  // entry-held fixpoint and becomes requires_capability under TSA).
  IKDP_REQUIRES(callout) std::vector<Entry>& BucketFor(SimTime when);

  // Runs all entries expiring at tick `when` at softclock level.
  IKDP_CTX_SOFTCLOCK void RunTick(SimTime when);

  Simulator* sim_;
  int hz_;
  SimDuration tick_;
  // The callout-wheel lock: innermost leaf of the hierarchy (docs/klock.md)
  // so armers may hold their own structure's lock across Timeout /
  // ScheduleHead.  RunTick detaches the expired bucket under the lock and
  // runs the handlers after release — handlers re-arm.  The `callout`
  // ordering channel still carries the arm -> run happens-before edge for
  // krace.  `mutable` lets const accessors (Pending) lock.
  mutable SpinLock lock_ IKDP_LOCK_RANK(callout, 90) = SpinLock("callout", 90);
  // Pending ticks in ascending time order.  Armed/filled from any context,
  // drained by RunTick at softclock.
  std::vector<Bucket> buckets_ IKDP_GUARDED_BY(lock:callout);
  // Emptied entry vectors, capacity kept, for the next new bucket: arming
  // a callout allocates nothing once the table has warmed up.
  std::vector<std::vector<Entry>> spare_ IKDP_GUARDED_BY(lock:callout);
  // Callouts armed and neither fired nor removed.
  size_t pending_ IKDP_GUARDED_BY(lock:callout) = 0;
  // The tick RunTick is dispatching, detached from buckets_ so handlers can
  // re-arm; cleared (capacity kept) when the tick is done.
  std::vector<Entry> running_ IKDP_GUARDED_BY(softclock);
  CalloutId next_id_ IKDP_GUARDED_BY(lock:callout) = 0;
  uint64_t softclock_runs_ = 0;
  TraceLog* trace_ = nullptr;
};

}  // namespace ikdp

#endif  // SRC_SIM_CALLOUT_H_
