// A ktrace-style kernel event log.
//
// A fixed-capacity ring of typed records, cheap enough to leave compiled in:
// when no TraceLog is attached (the default), every hook is a null-pointer
// check.  The kernel records scheduling transitions, interrupts, syscalls,
// and splice lifecycle events; tests and debugging sessions snapshot or dump
// the ring to see exactly what the machine did and when.
//
// Records carry two integer arguments and a static tag string; meaning is
// per-event (documented at each recording site).  Tags must point at storage
// that outlives the log (string literals, or names owned by a live device).
//
// Begin/end pairs and their keys are listed once, in src/metrics/intervals.h.
//
// Every record also carries the kspan cursor's span id (src/sim/kspan.h), so
// the pairs double as child spans of the request that caused them.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/kspan.h"
#include "src/sim/time.h"

namespace ikdp {

enum class TraceKind : uint8_t {
  // --- scheduler ---
  kDispatch,      // a = pid, tag = process name
  kSleep,         // a = pid, b = priority, tag = process name
  kWakeup,        // a = woken count
  kRunnable,      // a = pid — entered the run queue (pairs with kDispatch)
  kInterrupt,     // a = duration ns
  // --- syscalls ---
  kSyscallEnter,  // a = pid, tag = syscall name
  kSyscallExit,   // a = pid, tag = syscall name
  // --- splice lifecycle ---
  kSpliceStart,   // a = descriptor serial, b = total chunks (-1 unbounded)
  kSpliceChunk,   // a = descriptor serial, b = chunk index (write completed)
  kSpliceDone,    // a = descriptor serial, b = bytes moved
  // --- splice flow control ---
  kSpliceRead,      // a = descriptor serial, b = chunk index — read issued
  kSpliceLowWater,  // a = descriptor serial, b = pending reads at the crossing
  kSpliceRefill,    // a = descriptor serial, b = reads issued by the batch
  // --- buffer cache ---
  kBreadHit,      // a = blkno, tag = device name
  kBreadMiss,     // a = blkno, tag = device name
  kGetblkSleep,   // a = pid, b = blkno — getblk blocked (busy buf / no free)
  kDelwriFlush,   // a = blkno, tag = device name — dirty LRU victim pushed out
  // --- disk driver / DiskModel ---
  kDiskEnqueue,   // a = byte offset, b = nbytes, tag = "read" / "write"
  kDiskDispatch,  // a = transfer serial, b = total bytes, tag = device name
  kDiskComplete,  // a = transfer serial, b = total bytes, tag = device name
  // --- callout table ---
  kCalloutArm,    // a = callout id, b = ticks ahead (0 = head of list)
  kSoftclockRun,  // a = callouts run on this tick
  // --- aio splice ring ---
  kRingSubmit,     // a = ring id, b = sqes admitted by one RingEnter batch
  kRingSqDepth,    // a = ring id, b = unfinished ops right after the batch
  kRingOpSubmit,   // a = ring id, b = cookie — op admitted to the kernel
  kRingOpComplete, // a = ring id, b = cookie — op finished (CQE ready)
  kRingReap,       // a = ring id, b = completions posted by this reaper pass
  kRingOverflow,   // a = ring id, b = overflow-staged completions (CQ full)
  kRingCancel,     // a = ring id, b = cookie — queued op cancelled
  // --- UDP ---
  kUdpSend,  // a = datagram serial, b = nbytes — accepted by the interface
  kUdpSent,  // a = datagram serial, b = nbytes — left the interface
             //     (pairs with kUdpSend, keyed by datagram serial)
  kUdpRecv,  // a = datagram serial, b = nbytes — delivered to the receiver
  // --- in-kernel splice operators (src/kop) ---
  kKopExec,    // a = descriptor serial, b = execution cost ns (one chunk)
  kKopDrop,    // a = descriptor serial, b = chunk index — filtered in-kernel
  kKopReject,  // a = descriptor serial, b = errno — operator aborted the stream
};

const char* TraceKindName(TraceKind k);

struct TraceRecord {
  SimTime time = 0;
  TraceKind kind = TraceKind::kDispatch;
  int64_t a = 0;
  int64_t b = 0;
  const char* tag = "";  // static storage only
  // The span the machine was working on when the record was written (the
  // kspan cursor; see src/sim/kspan.h).  0 when untagged.  Stamped
  // automatically by Record(); the span exporters group records into
  // per-request trees with it.
  SpanId span = kNoSpan;
};

class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 4096) : capacity_(capacity) { ring_.reserve(capacity); }

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  void Record(SimTime t, TraceKind kind, int64_t a = 0, int64_t b = 0, const char* tag = "") {
    TraceRecord rec{t, kind, a, b, tag, CurrentKspan().span};
    if (ring_.size() < capacity_) {
      ring_.push_back(rec);
    } else {
      ring_[next_ % capacity_] = rec;
    }
    ++next_;
    for (const auto& obs : observers_) {
      obs(rec);
    }
  }

  // Live taps, called in attach order with every record as it is written,
  // before ring eviction can drop it.  Observers run on the host only and
  // must not touch simulated state; they live as long as the log.
  using Observer = InlineFn<void(const TraceRecord&)>;
  void AddObserver(Observer obs);

  // Total records ever written (>= Snapshot().size()).
  uint64_t total() const { return next_; }

  // Records lost to ring-buffer eviction: written, no longer retained.  A
  // nonzero value means Snapshot() (and any Chrome trace built from it) is
  // truncated; the telemetry layer surfaces this as trace.dropped_events.
  uint64_t dropped() const { return next_ - ring_.size(); }

  // Records currently retained, oldest first.
  std::vector<TraceRecord> Snapshot() const {
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
      out = ring_;
    } else {
      const size_t head = next_ % capacity_;
      out.insert(out.end(), ring_.begin() + static_cast<int64_t>(head), ring_.end());
      out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<int64_t>(head));
    }
    return out;
  }

  // Retained records matching `pred` (oldest first).
  template <typename Pred>
  std::vector<TraceRecord> Filter(const Pred& pred) const {
    std::vector<TraceRecord> out;
    for (const TraceRecord& r : Snapshot()) {
      if (pred(r)) {
        out.push_back(r);
      }
    }
    return out;
  }

  // Human-readable dump, one record per line.
  void Dump(std::ostream& os) const;

 private:
  size_t capacity_;
  std::vector<TraceRecord> ring_;
  uint64_t next_ = 0;
  std::vector<Observer> observers_;
};

}  // namespace ikdp

#endif  // SRC_SIM_TRACE_H_
