// Online telemetry: trace records in, latency histograms out.
//
// TelemetryCollector observes a TraceLog and turns the intervals its
// IntervalPairer closes (src/metrics/intervals.h) into histogram samples as
// they happen, so latencies survive ring eviction:
//
//   disk.service_time.<device>   kDiskDispatch -> kDiskComplete
//   splice.chunk_latency         kSpliceRead   -> kSpliceChunk (written chunks only)
//   syscall.latency.<name>       kSyscallEnter -> kSyscallExit
//   cpu.runq_wait                kRunnable     -> kDispatch
//   aio.completion_latency       kRingOpSubmit -> kRingOpComplete
//
// kRingSqDepth records additionally feed the aio.sq_depth histogram (the
// unfinished-op count sampled after every submission batch).
//
// Everything runs on the host side of the simulation boundary: observing a
// record never advances the simulated clock, so a traced run and an
// untraced run produce identical simulated results.
//
// CaptureKernelCounters samples the kernel's scattered Stats structs (CPU,
// syscalls, buffer cache, splice engine, and each mounted disk's driver +
// scheduler) into the registry's counter namespace, giving exporters one
// enumerable view of the whole machine.

#ifndef SRC_METRICS_TELEMETRY_H_
#define SRC_METRICS_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "src/metrics/histogram.h"
#include "src/metrics/intervals.h"
#include "src/os/kernel.h"
#include "src/sim/trace.h"

namespace ikdp {

class TelemetryCollector {
 public:
  explicit TelemetryCollector(MetricsRegistry* registry) : registry_(registry) {}
  // Out of line: the pair table's teardown is emitted once, in telemetry.cc,
  // not inlined into every file that destroys a collector.
  ~TelemetryCollector();

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  // Adds this collector to `log`'s observers; it must outlive the log.
  void Attach(TraceLog* log);

  // Feeds one record; public so tests can drive the pairing logic directly.
  void Observe(const TraceRecord& rec);

  // Begin records whose end has not arrived yet (unfinished intervals).
  size_t PendingIntervals() const { return pairer_.pending(); }

 private:
  // Feeds the histogram one closed interval belongs to, if any.
  void Sample(const TraceRecord& begin, const TraceRecord& end);

  MetricsRegistry* registry_;
  IntervalPairer pairer_;
};

// Samples every kernel Stats struct into `registry` counters under stable
// dotted names ("cpu.switches", "cache.delwri_write_errors",
// "disk.<mount>.sort_passes", ...).  Idempotent: sampling twice overwrites.
// Includes trace.dropped_events (ring-buffer evictions of the attached
// TraceLog; 0 when none is attached) and the per-disk fault-injection
// counters (errors, ENOSPC hits, transient/permanent split, latency spikes).
void CaptureKernelCounters(MetricsRegistry* registry, Kernel& kernel);

}  // namespace ikdp

#endif  // SRC_METRICS_TELEMETRY_H_
