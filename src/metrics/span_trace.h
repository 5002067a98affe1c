// Span derivation and per-request exports over the kspan layer.
//
// The kernel mints REAL spans at request boundaries (client requests, splice
// streams, ring ops) and stamps every TraceRecord with the cursor's span
// (src/sim/kspan.h).  This module turns those raw materials into the
// per-request views the aggregate telemetry cannot provide:
//
//  * SpanTraceBuilder — a TraceLog observer that derives CHILD spans from
//    the intervals its IntervalPairer closes (src/metrics/intervals.h:
//    syscalls, run-queue waits, disk transfers, splice chunk reads, UDP
//    interface occupancy) plus point spans for bread hits/misses and
//    flow-control refills.  Derived spans are minted into the same
//    collector the kernel uses, parented to the span the begin record
//    carried, so they nest under the request that caused them.  Ring ops
//    are NOT derived: the ring mints real "aio.op" spans itself.
//
//  * BuildRequestBreakdowns — joins the collector's span trees with the
//    CpuSystem attribution ledger into one row per root (request) span:
//    wall latency plus attributed CPU split by (charge bucket, subsystem).
//
//  * ExportFoldedStacks — flame-graph folded-stack lines ("a;b;c value"),
//    one per (span path, bucket:subsystem) with attributed nanoseconds as
//    the value.  Feed to any flamegraph.pl-compatible renderer.
//
//  * ExportSpanChromeTrace — the collector's spans as Chrome trace-event
//    async spans, loadable in Perfetto alongside ExportChromeTrace output.
//
// Everything here is host-side analysis: attaching the builder or running
// the exporters never advances the simulated clock.

#ifndef SRC_METRICS_SPAN_TRACE_H_
#define SRC_METRICS_SPAN_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/kern/cpu.h"
#include "src/metrics/intervals.h"
#include "src/sim/kspan.h"
#include "src/sim/trace.h"

namespace ikdp {

class SpanTraceBuilder {
 public:
  // Derived spans are minted into `collector` (normally the one attached via
  // AttachKspan, so real and derived spans share one tree).
  explicit SpanTraceBuilder(KspanCollector* collector) : collector_(collector) {}

  SpanTraceBuilder(const SpanTraceBuilder&) = delete;
  SpanTraceBuilder& operator=(const SpanTraceBuilder&) = delete;

  // Adds this builder to `log`'s observers; it must outlive the log.
  void Attach(TraceLog* log);

  // Feeds one record; public so tests can drive the pairing directly.
  void Observe(const TraceRecord& rec);

  // Count of derived spans by name ("syscall", "disk.xfer", ...).
  const std::map<std::string, uint64_t>& derived() const { return derived_; }

  // Begin records whose end has not arrived yet.
  size_t PendingIntervals() const { return pairer_.pending(); }

 private:
  // Mints the span one closed interval becomes, if any.
  void Emit(const TraceRecord& begin, const TraceRecord& end);
  // Mints a closed span from `begin` to `end` under the span `begin`
  // carried; a point span passes one record as both.
  void Mint(const char* name, const TraceRecord& begin, const TraceRecord& end, int64_t arg,
            int64_t result = 0, bool error = false);

  KspanCollector* collector_;
  std::map<std::string, uint64_t> derived_;
  IntervalPairer pairer_;
};

// One request's worth of the attribution ledger: the root span's wall
// interval plus every charge attributed to a span in its tree, keyed
// "bucket/subsystem" ("process/process", "interrupt/disk", ...).
struct RequestBreakdown {
  SpanId root = kNoSpan;
  const char* name = "";
  int64_t arg = 0;
  SimTime start = 0;
  SimTime end = -1;  // -1 while open
  int64_t result = 0;
  bool error = false;
  SimDuration cpu_total = 0;
  std::map<std::string, SimDuration> cpu;

  SimDuration Latency() const { return end >= 0 ? end - start : 0; }
};

// Human-readable name of a ChargeBucket ("process", "switch", "interrupt",
// "softclock").
const char* ChargeBucketName(CpuSystem::ChargeBucket b);

// One breakdown per ROOT span in the collector, in mint order.  Charges
// whose span is unknown to the collector are ignored here (they show up as
// "untracked" in the folded-stack export).
std::vector<RequestBreakdown> BuildRequestBreakdowns(
    const KspanCollector& collector, const std::map<CpuSystem::ChargeKey, SimDuration>& attribution);

// Folded-stack lines: "root;child;...;bucket:subsystem <ns>", aggregated and
// name-ordered.  Charges on spans the collector does not know (including
// kNoSpan) fold under "untracked".  Non-positive aggregates are skipped.
void ExportFoldedStacks(const KspanCollector& collector,
                        const std::map<CpuSystem::ChargeKey, SimDuration>& attribution,
                        std::ostream& os);

// Chrome trace-event JSON of every span as an async slice (cat "kspan");
// open spans emit only their begin event.  Loadable in Perfetto.
void ExportSpanChromeTrace(const KspanCollector& collector, std::ostream& os);

// Renders the optional "spans"/"attribution" sections of the extended
// ikdp.telemetry.v1 document — pass the result as ExportRegistryJson's
// `extra_sections`.  "spans" carries the collector's lifecycle totals and a
// per-name span census; "attribution" is the exact CPU mirror, one entry per
// (bucket, subsystem, span) with attributed nanoseconds.
std::string RenderSpanSections(const KspanCollector& collector,
                               const std::map<CpuSystem::ChargeKey, SimDuration>& attribution);

}  // namespace ikdp

#endif  // SRC_METRICS_SPAN_TRACE_H_
