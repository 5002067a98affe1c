// Online tail-latency SLO monitoring for request-serving workloads.
//
// SloMonitor tracks every in-flight request from arrival to completion:
//
//  * completions feed a LatencyHistogram, so p50/p99/p999 are available
//    online at any point during a run (the histogram is log2-bucketed; the
//    reported quantiles are conservative upper bounds, src/metrics/histogram.h);
//  * goodput is bytes delivered by successful requests over the observation
//    window (first arrival to last completion);
//  * a simulated-time stall watchdog flags requests that have made no
//    progress for longer than a threshold — the descriptor-leak/wedged-
//    stream detector the fault-injection suite runs against every cell.
//
// The monitor is driven by explicit calls from the workload (arrival,
// progress, completion); it is host-side bookkeeping only and never touches
// the simulated clock.

#ifndef SRC_METRICS_SLO_H_
#define SRC_METRICS_SLO_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/kern/ctx.h"
#include "src/metrics/histogram.h"
#include "src/sim/time.h"

namespace ikdp {

// A point-in-time summary of the monitor's view.
struct SloReport {
  uint64_t completed = 0;
  uint64_t errors = 0;   // completions reporting failure
  uint64_t open = 0;     // arrived, not yet completed
  uint64_t stall_flags = 0;  // watchdog flaggings (a request can flag once)
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t p999_ns = 0;
  int64_t max_ns = 0;
  int64_t bytes = 0;         // delivered by successful completions
  double goodput_bps = 0.0;  // bytes over the observation window
  SimTime window_start = 0;
  SimTime window_end = 0;
};

class SloMonitor {
 public:
  // A request that has reported no progress for `stall_threshold` of
  // simulated time is flagged by CheckStalls.
  explicit SloMonitor(SimDuration stall_threshold) : stall_threshold_(stall_threshold) {}

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  // The monitor is fed from whatever context observes the event — arrival
  // events, delivery interrupts, server process code — and never blocks, so
  // the feed methods are callable from any context.

  // Request `id` arrived at `t`.  Ids must be unique among open requests.
  IKDP_CTX_ANY void OnRequestStart(uint64_t id, SimTime t);

  // Request `id` made forward progress (bytes moved, state advanced) at `t`.
  // Resets its watchdog; unknown ids are ignored (progress may race a
  // completion that already retired the id).
  IKDP_CTX_ANY void OnRequestProgress(uint64_t id, SimTime t);

  // Request `id` completed at `t` having delivered `bytes`; `error` marks a
  // failed completion (its latency still counts — a failed request was
  // still latency someone observed).  Unknown ids are ignored.
  IKDP_CTX_ANY void OnRequestEnd(uint64_t id, SimTime t, int64_t bytes, bool error);

  // The watchdog: returns ids open at `now` whose last progress is older
  // than the stall threshold, flagging each at most once.  Deterministic
  // (id order).
  IKDP_CTX_ANY std::vector<uint64_t> CheckStalls(SimTime now);

  const LatencyHistogram& latency() const { return latency_; }
  size_t open() const { return open_.size(); }

  SloReport Report(SimTime now) const;

 private:
  struct Open {
    SimTime start = 0;
    SimTime last_progress = 0;
    bool flagged = false;  // already reported by CheckStalls
  };

  SimDuration stall_threshold_;
  // Fed from every context (see the method comments above): the same
  // logically-concurrent sharing as the CpuSystem ledger.
  std::map<uint64_t, Open> open_ IKDP_GUARDED_BY(any);
  LatencyHistogram latency_ IKDP_GUARDED_BY(any);
  uint64_t completed_ IKDP_GUARDED_BY(any) = 0;
  uint64_t errors_ IKDP_GUARDED_BY(any) = 0;
  uint64_t stall_flags_ IKDP_GUARDED_BY(any) = 0;
  int64_t bytes_ IKDP_GUARDED_BY(any) = 0;
  SimTime first_start_ IKDP_GUARDED_BY(any) = -1;
  SimTime last_end_ IKDP_GUARDED_BY(any) = 0;
};

}  // namespace ikdp

#endif  // SRC_METRICS_SLO_H_
