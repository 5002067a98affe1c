// kspan: request-scoped causal spans for the simulated kernel.
//
// A span names one unit of causally-related work — a client request, one
// splice stream, one ring op — and every span has a parent, so spans form
// trees rooted at requests.  The span machinery answers the question the
// aggregate telemetry (src/metrics) cannot: WHICH request paid for this
// microsecond of interrupt time, this disk transfer, this softclock tick?
//
// Two pieces, both host-side only (attaching them can never change a single
// simulated nanosecond — the perturbation harness proves it):
//
//  * The CURSOR — a per-simulation (subsystem, span) pair naming the work
//    the machine is doing right now (src/sim/sim_state.h).
//    KspanScope pushes/pops it RAII-style, mirroring ContextGuard.  The
//    scheduler pushes the running process's span around every coroutine
//    resume; interrupt bodies run under the tag captured when the interrupt
//    was raised; handlers refine it (splice, disk, net, aio).  TraceLog
//    stamps every record with the cursor's span, and the CpuSystem ledger
//    attributes every charge to (context, subsystem, span) — summing exactly
//    to the existing totals (CheckAttributionClosure).
//
//    CAUTION: a KspanScope is a host-stack object.  Coroutines must NOT hold
//    one across co_await — the cursor is saved/restored in strict LIFO
//    order.  Process code sets Process::span (via CpuSystem::SetSpan)
//    instead; the scheduler re-pushes it on every resume.
//
//  * The COLLECTOR — an optional recorder of span begin/end pairs; a
//    Simulator inherits the one attached where it is constructed.  When
//    detached (the default) KspanBegin() degenerates to "inherit the
//    cursor's span": descriptors still ride their requester's span and
//    attribution still groups by request, with zero allocation.  When
//    attached, Begin mints fresh ids and the collector keeps the whole tree
//    for export (folded stacks, Chrome span tracks, critical-path
//    breakdowns — src/metrics/span_trace.h).
//
// Lifecycle discipline (checked by KspanCollector::CheckBalanced and the
// fault-matrix suite): every minted span is ended EXACTLY once.  Error
// paths end spans with error=true; they never leak an open span.

#ifndef SRC_SIM_KSPAN_H_
#define SRC_SIM_KSPAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kern/ctx.h"
#include "src/sim/time.h"

namespace ikdp {

// Span identity.  0 means "no span" everywhere.
using SpanId = uint64_t;

inline constexpr SpanId kNoSpan = 0;

// What the machine is working on right now.  `subsystem` is a static string
// ("process", "splice", "disk", "net", "aio", "sched", ...); empty means
// untagged.
struct KspanCursor {
  const char* subsystem = "";
  SpanId span = kNoSpan;
};

// The current simulation's cursor.
const KspanCursor& CurrentKspan();

// Overwrites the span of the CURRENT cursor in place (no push).  Used by
// CpuSystem::SetSpan so a process that re-labels itself mid-resume is
// reflected immediately; the enclosing KspanScope still restores whatever
// was current before it.
void KspanCursorSetSpan(SpanId span);

// RAII cursor push/pop, mirroring ContextGuard.  Nests; never hold across a
// coroutine suspension (see header comment).
class KspanScope {
 public:
  KspanScope(const char* subsystem, SpanId span);
  ~KspanScope();

  KspanScope(const KspanScope&) = delete;
  KspanScope& operator=(const KspanScope&) = delete;

 private:
  KspanCursor prev_;
};

// One node of a span tree.  `name` must be a string literal (static
// storage), like TraceRecord tags.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  const char* name = "";
  SimTime start = 0;
  SimTime end = -1;  // -1 while open
  int64_t a = 0;       // site-specific argument (serial, cookie, pid, ...)
  int64_t result = 0;  // site-specific result (bytes moved, errno, ...)
  bool error = false;

  bool open() const { return end < 0; }
};

// Host-side recorder of span trees.  All methods are host work: no simulated
// time, no events, no RNG.
class KspanCollector {
 public:
  KspanCollector() = default;

  KspanCollector(const KspanCollector&) = delete;
  KspanCollector& operator=(const KspanCollector&) = delete;

  // Mints a new span.  parent == kNoSpan makes a root (a request).  Begin
  // and End run in whatever context does the work — process syscalls,
  // interrupt completion handlers, softclock refills — and never block.
  IKDP_CTX_ANY SpanId Begin(SimTime t, const char* name, SpanId parent, int64_t arg = 0);

  // Ends a span exactly once.  Ending an unknown or already-ended id is a
  // lifecycle bug; it is counted (bad_ends) and reported by CheckBalanced
  // rather than aborting, so tests can assert on it.
  IKDP_CTX_ANY void End(SimTime t, SpanId id, int64_t result = 0, bool error = false);

  bool Known(SpanId id) const { return index_.count(id) > 0; }
  bool IsOpen(SpanId id) const;

  // Walks parent links to the root request span (id itself if orphaned).
  SpanId RootOf(SpanId id) const;

  const SpanRecord* Find(SpanId id) const;
  // All spans in mint order.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  uint64_t begun() const { return static_cast<uint64_t>(spans_.size()); }
  uint64_t ended() const { return ended_; }
  uint64_t bad_ends() const { return bad_ends_; }
  size_t open_count() const { return begun() - ended_; }

  // True when every begun span was ended exactly once and no End targeted an
  // unknown/closed span.  On failure fills `err` with the first offender.
  bool CheckBalanced(std::string* err) const;

 private:
  // Every context mints and ends spans (the same logically-concurrent
  // sharing the CpuSystem ledger has), so the whole record store is
  // guarded-by-any: host-only bookkeeping, but touched from process,
  // interrupt, and softclock work alike.
  std::vector<SpanRecord> spans_ IKDP_GUARDED_BY(any);
  std::unordered_map<SpanId, size_t> index_ IKDP_GUARDED_BY(any);  // id -> spans_ slot
  SpanId next_ IKDP_GUARDED_BY(any) = 0;
  uint64_t ended_ IKDP_GUARDED_BY(any) = 0;
  uint64_t bad_ends_ IKDP_GUARDED_BY(any) = 0;
};

// The current state's collector, or nullptr (the default).  Attach before a
// run, detach after; mid-run detaching orphans open spans.
KspanCollector* Kspan();
void AttachKspan(KspanCollector* collector);

// Convenience used by kernel code that mints child spans of whatever is
// current: with a collector attached, mints a span parented to the cursor
// and returns its fresh id; detached, returns the cursor's span unchanged
// (work inherits its requester's identity).  The caller must remember
// whether it owns the id (KspanOwned at mint time) and only KspanEnd ids it
// owns.
IKDP_CTX_ANY SpanId KspanBegin(SimTime t, const char* name, int64_t arg = 0);
inline bool KspanOwned() { return Kspan() != nullptr; }
IKDP_CTX_ANY void KspanEnd(SimTime t, SpanId id, int64_t result = 0, bool error = false);

}  // namespace ikdp

#endif  // SRC_SIM_KSPAN_H_
