#include "src/sim/callout.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/sim_state.h"

namespace ikdp {

// Callout-list krace probes are COMMUTE, not WRITE: arming distinct ids on a
// tick and erasing distinct ids are order-insensitive map operations, and the
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
  buckets_[when].push_back(Entry{id, std::move(fn), /*head=*/false});
  pending_[id] = when;
  if (KraceEnabled()) Krace().ChannelRelease(&buckets_);
  ArmSoftclock(when);
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
  auto& bucket = buckets_[when];
  // Head entries run before FIFO entries; among themselves they keep
  // insertion order (first ScheduleHead call on a tick runs first, matching
  // a list where each insert-at-head is drained in the original order by the
  // splice engine's per-descriptor sequencing — the exact intra-tick order is
  // not observable by the modelled workloads).
  auto it = std::find_if(bucket.begin(), bucket.end(), [](const Entry& e) { return !e.head; });
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
  bucket.insert(it, Entry{id, std::move(fn), /*head=*/true});
  pending_[id] = when;
  if (KraceEnabled()) Krace().ChannelRelease(&buckets_);
  ArmSoftclock(when);
  lock_.Release();
  if (trace_ != nullptr) {
    trace_->Record(sim_->Now(), TraceKind::kCalloutArm, static_cast<int64_t>(id), 0);
  }
  return id;
}

bool CalloutTable::Untimeout(CalloutId id) {
  lock_.Acquire();
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    lock_.Release();
    return false;
  }
  const SimTime when = it->second;
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::pending_");
  pending_.erase(it);
  auto bucket_it = buckets_.find(when);
  if (bucket_it != buckets_.end()) {
    auto& entries = bucket_it->second;
    entries.erase(
        std::remove_if(entries.begin(), entries.end(), [id](const Entry& e) { return e.id == id; }),
        entries.end());
    if (entries.empty()) {
      buckets_.erase(bucket_it);
      auto armed_it = armed_.find(when);
      if (armed_it != armed_.end()) {
        IKDP_KRACE_COMMUTE(this, "CalloutTable::armed_");
        sim_->Cancel(armed_it->second);
        armed_.erase(armed_it);
      }
    }
  }
  lock_.Release();
  return true;
}

void CalloutTable::ArmSoftclock(SimTime when) {
  if (armed_.count(when) > 0) {
    return;
  }
  // Keyed insert under a unique tick time: simultaneous armers of one tick
  // reach the same final state in either order (the second sees the first's
  // entry and returns above).
  IKDP_KRACE_COMMUTE(this, "CalloutTable::armed_");
  armed_[when] = sim_->At(when, [this, when] { RunTick(when); });
}

void CalloutTable::RunTick(SimTime when) {
  if (KraceEnabled()) Krace().ChannelAcquire(&buckets_);
  lock_.Acquire();
  IKDP_KRACE_COMMUTE(this, "CalloutTable::buckets_");
  IKDP_KRACE_COMMUTE(this, "CalloutTable::armed_");
  armed_.erase(when);
  auto it = buckets_.find(when);
  if (it == buckets_.end()) {
    lock_.Release();
    return;
  }
  // Detach the bucket first: callouts frequently re-schedule themselves, and
  // fresh ScheduleHead() calls from inside a handler must land on the *next*
  // tick, not this one (NextTickAfter is strict, so they do).  The handlers
  // below run with the lock dropped — re-arming acquires it again.
  std::vector<Entry> entries = std::move(it->second);
  buckets_.erase(it);
  ++softclock_runs_;
  if (trace_ != nullptr) {
    trace_->Record(when, TraceKind::kSoftclockRun, static_cast<int64_t>(entries.size()));
  }
  for (Entry& e : entries) {
    pending_.erase(e.id);
  }
  lock_.Release();
  // Everything below runs at softclock level: the observer (softclock CPU
  // charging) and the expired entries themselves.  Entries that raise to
  // interrupt level (RunInterrupt) nest their own guard on top.
  ContextGuard at_softclock(ExecContext::kSoftclock);
  if (observer_) {
    observer_(static_cast<int>(entries.size()));
  }
  for (Entry& e : entries) {
    e.fn();
  }
}

}  // namespace ikdp
