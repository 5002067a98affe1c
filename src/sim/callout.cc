#include "src/sim/callout.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/sim_state.h"

namespace ikdp {

// Callout-list krace probes are COMMUTE, not WRITE: arming distinct ids on a
// tick and erasing distinct ids are order-insensitive operations, and the
// one thing that is order-sensitive — the intra-tick run order of entries
// armed by different same-timestamp events — is invisible to happens-before
// detection anyway (the whole tick runs as one RunTick event) and is covered
// by the schedule-perturbation mode instead (docs/krace.md).  The `callout`
// ordering channel carries the arm -> RunTick edge for the declared
// IKDP_ORDERED_BY(callout) members.

CalloutTable::CalloutTable(Simulator* sim, int hz) : sim_(sim), hz_(hz) {
  assert(hz > 0);
  tick_ = kSecond / hz;
  assert(tick_ > 0);
}

SimTime CalloutTable::NextTickAfter(SimTime now) const {
  return (now / tick_ + 1) * tick_;
}

CalloutId CalloutTable::Timeout(EventFn fn, int ticks) {
  assert(ticks >= 1);
  const SimTime when = NextTickAfter(sim_->Now()) + static_cast<SimTime>(ticks - 1) * tick_;
  lock_.Acquire();
  const CalloutId id = ++next_id_;
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
  BucketFor(when).push_back(Entry{id, std::move(fn), /*head=*/false});
  ++pending_;
  if (KraceEnabled()) Krace().ChannelRelease(&buckets_);
  lock_.Release();
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kCalloutArm, static_cast<int64_t>(id), ticks);
  }
  return id;
}

CalloutId CalloutTable::ScheduleHead(EventFn fn) {
  const SimTime when = NextTickAfter(sim_->Now());
  lock_.Acquire();
  const CalloutId id = ++next_id_;
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
  std::vector<Entry>& entries = BucketFor(when);
  // Head entries run before FIFO entries; among themselves they keep
  // insertion order (first ScheduleHead call on a tick runs first, matching
  // a list where each insert-at-head is drained in the original order by the
  // splice engine's per-descriptor sequencing — the exact intra-tick order is
  // not observable by the modelled workloads).
  auto it = std::find_if(entries.begin(), entries.end(), [](const Entry& e) { return !e.head; });
  entries.insert(it, Entry{id, std::move(fn), /*head=*/true});
  ++pending_;
  if (KraceEnabled()) Krace().ChannelRelease(&buckets_);
  lock_.Release();
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kCalloutArm, static_cast<int64_t>(id), 0);
  }
  return id;
}

bool CalloutTable::Untimeout(CalloutId id) {
  lock_.Acquire();
  for (auto b = buckets_.begin(); b != buckets_.end(); ++b) {
    std::vector<Entry>& entries = b->entries;
    auto it = std::find_if(entries.begin(), entries.end(),
                           [id](const Entry& e) { return e.id == id; });
    if (it == entries.end()) {
      continue;
    }
    IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
    IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
    entries.erase(it);
    --pending_;
    if (entries.empty()) {
      sim_->Cancel(b->armed);
      spare_.push_back(std::move(entries));
      buckets_.erase(b);
    }
    lock_.Release();
    return true;
  }
  lock_.Release();
  return false;
}

std::vector<CalloutTable::Entry>& CalloutTable::BucketFor(SimTime when) {
  auto b = std::lower_bound(buckets_.begin(), buckets_.end(), when,
                            [](const Bucket& x, SimTime t) { return x.when < t; });
  if (b != buckets_.end() && b->when == when) {
    return b->entries;
  }
  // Keyed insert under a unique tick time: simultaneous armers of one tick
  // reach the same final state in either order (the second finds the
  // first's bucket above).
  std::vector<Entry> storage;
  if (!spare_.empty()) {
    storage = std::move(spare_.back());
    spare_.pop_back();
  }
  const EventId armed = sim_->At(when, [this, when] { RunTick(when); });
  return buckets_.insert(b, Bucket{when, armed, std::move(storage)})->entries;
}

void CalloutTable::RunTick(SimTime when) {
  if (KraceEnabled()) Krace().ChannelAcquire(&buckets_);
  lock_.Acquire();
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
  // Ticks fire in time order, so this tick's bucket is the first one (an
  // emptied bucket's event was cancelled with it).
  assert(!buckets_.empty() && buckets_.front().when == when);
  assert(running_.empty());
  // Detach the bucket first: callouts frequently re-schedule themselves, and
  // fresh ScheduleHead() calls from inside a handler must land on the *next*
  // tick, not this one (NextTickAfter is strict, so they do).  The handlers
  // below run with the lock dropped — re-arming acquires it again.
  running_.swap(buckets_.front().entries);
  spare_.push_back(std::move(buckets_.front().entries));
  buckets_.erase(buckets_.begin());
  pending_ -= running_.size();
  ++softclock_runs_;
  if (trace_ != nullptr) {
    trace_->Record(when, TraceKind::kSoftclockRun, static_cast<int64_t>(running_.size()));
  }
  lock_.Release();
  // The expired entries run at softclock level; entries that raise to
  // interrupt level (RunInterrupt) nest their own guard on top.
  ContextGuard at_softclock(ExecContext::kSoftclock);
  for (Entry& e : running_) {
    e.fn();
  }
  running_.clear();
}

}  // namespace ikdp
