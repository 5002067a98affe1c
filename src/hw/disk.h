// Timing model of a SCSI disk drive with a segmented read-ahead cache.
//
// The model captures the characteristics the paper's Section 6.1 reports for
// its two test drives:
//
//   RZ56: 8.3 ms average rotational latency, 16 ms average seek,
//         1.66 MB/s media rate, 64 KB read-ahead cache (1 segment).
//   RZ58: 5.6 ms average rotational latency, 12.5 ms average seek,
//         ~2.7 MB/s media rate, 256 KB read-ahead cache in 4 segments.
//
// The drive serves one request at a time, in arrival order.  Request
// scheduling is the driver's job (src/dev/disk_driver.h disksort), and the
// driver keeps at most one request at the hardware.
//
// Service time decomposes into controller overhead, seek, rotational delay,
// and transfer:
//
//  * A read that falls inside an already-prefetched region of a cache
//    segment transfers at the SCSI bus rate with no mechanical delay.
//  * A read inside a segment but ahead of its fill frontier waits for the
//    background prefetch (which fills at the media rate) to catch up.
//  * Any other access seeks (distance-dependent), waits rotational latency
//    (zero when the access is physically sequential to the previous one —
//    drive firmware and interleave absorb back-to-back accesses), and
//    transfers at the media rate.  A read miss (re)starts a prefetch
//    segment at its end position.
//
// The model is deterministic: rotational latency uses the average for
// non-sequential accesses rather than a random draw, which keeps unit tests
// exact and experiments reproducible without materially changing aggregate
// behaviour over thousands of requests.

#ifndef SRC_HW_DISK_H_
#define SRC_HW_DISK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_set>

#include "src/hw/fault.h"
#include "src/sim/fifo.h"
#include "src/sim/kspan.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace ikdp {

struct DiskParams {
  std::string name;

  int64_t capacity_bytes = 0;
  int64_t bytes_per_cylinder = 0;

  // Seek time model: seek(d cylinders) = min + (max - min) * sqrt(d / ncyl).
  SimDuration min_seek = 0;
  SimDuration avg_seek = 0;
  SimDuration max_seek = 0;

  SimDuration avg_rotational_latency = 0;  // half a rotation

  double media_rate_bps = 0;  // to/from the platters
  double bus_rate_bps = 0;    // SCSI burst rate for cache hits

  int64_t cache_bytes = 0;  // total read-ahead cache
  int cache_segments = 1;   // independent sequential streams tracked

  SimDuration controller_overhead = 0;  // fixed per-request cost

  int64_t Cylinders() const {
    return bytes_per_cylinder > 0 ? capacity_bytes / bytes_per_cylinder : 1;
  }
  int64_t SegmentBytes() const {
    return cache_segments > 0 ? cache_bytes / cache_segments : 0;
  }
};

// Parameters for Digital's RZ56 SCSI disk (665 MB, 3600 RPM).
DiskParams Rz56Params();

// Parameters for Digital's RZ58 SCSI disk (1.38 GB, 5400 RPM).
DiskParams Rz58Params();

// One outstanding transfer request.
struct DiskRequest {
  int64_t offset = 0;  // byte offset on the device, sector aligned
  int64_t nbytes = 0;
  bool is_read = true;
  // Invoked in simulator event context; `ok` is false when the medium
  // reported an unrecoverable error for this request.
  InlineFn<void(bool ok)> done;
  // The kspan of the request that issued this transfer (src/sim/kspan.h);
  // rides the hardware queue so dispatch/complete trace records and the
  // completion callback attribute to the originating request.
  SpanId span = kNoSpan;
};

class DiskModel {
 public:
  DiskModel(Simulator* sim, DiskParams params);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // Enqueues a request.  Each request's callback fires exactly once, at the
  // end of its transfer; requests complete in arrival order.  A request
  // submitted from inside a completion callback starts after that callback
  // returns.
  void Submit(DiskRequest req);

  const DiskParams& params() const { return params_; }

  // True when no request is in flight or queued.
  bool Idle() const { return !busy_ && queue_.empty(); }

  size_t QueueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }

  // Fault injection: requests for which `hook(offset, is_read)` returns true
  // complete with an error after their normal service time (a media error
  // is only detected once the heads get there).  Pass nullptr to clear.
  using FaultHook = InlineFn<bool(int64_t offset, bool is_read)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Probabilistic fault plan (src/hw/fault.h), composed with the hook (the
  // hook is consulted first).  A plan with every knob off clears the state:
  // no RNG is ever drawn and behaviour is bit-identical to the fault-free
  // model.
  void SetFaultPlan(const DiskFaultPlan& plan);

  // Errno of the most recently completed request: 0 on success, kErrIo or
  // kErrNoSpc on failure.  Valid during (and after) that request's `done`
  // callback — completion callbacks read it to tag the error they are
  // delivering.
  int last_error() const { return last_error_; }

  // Attaches a trace log recording kDiskDispatch / kDiskComplete pairs
  // (matched by transfer serial).  nullptr detaches; default off.
  // DiskDriver refreshes this from the CPU's trace on every Strategy call, so
  // attaching a log to a running machine picks up its disks automatically.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // --- statistics ---
  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_cache_hits = 0;   // transfers fully/partially from cache
    uint64_t seeks = 0;             // non-zero-distance seeks performed
    uint64_t errors = 0;            // injected media errors (hook + plan)
    uint64_t enospc_errors = 0;     // writes failed by the plan's byte budget
    uint64_t faults_transient = 0;  // media errors the next access outlives
    uint64_t faults_permanent = 0;  // grown-defect errors (plan.permanent)
    uint64_t latency_spikes = 0;    // transfers stretched by the fault plan
    size_t max_queue_depth = 0;     // high-water mark incl. in-flight request
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
    SimDuration busy_time = 0;      // total time servicing requests
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  // A read-ahead segment: data in [start, start+limit) is being prefetched;
  // the frontier grows at the media rate from `fill_start_pos` beginning at
  // `fill_start_time`.
  struct Segment {
    int64_t start = 0;
    int64_t limit = 0;           // exclusive end of the segment window
    int64_t fill_start_pos = 0;  // frontier position at fill_start_time
    SimTime fill_start_time = 0;
  };

  // Starts the oldest queued request, or goes idle when there is none.
  void StartNext();
  // The end of the current request's transfer.
  void Finish();

  // Evaluates the fault plan for one request about to be serviced; returns
  // the errno it should complete with (0 = success).  Draws from the plan's
  // RNG, so it must be called exactly once per request, in issue order.
  int EvaluatePlanFault(const DiskRequest& r);

  // Timing (and read-ahead segment bookkeeping) for one physical transfer
  // of [offset, offset+nbytes).
  SimDuration ServiceTime(int64_t offset, int64_t nbytes, bool is_read);
  SimDuration SeekTime(int64_t from_cyl, int64_t to_cyl);

  // Returns the prefetch frontier of `seg` at time `now`.
  int64_t Frontier(const Segment& seg, SimTime now) const;

  // Finds a segment containing [offset, offset+nbytes), or nullptr.
  Segment* FindSegment(int64_t offset, int64_t nbytes);

  // Starts (or restarts) a prefetch segment beginning at `pos` at time `t`.
  void StartSegment(int64_t pos, SimTime t);

  Simulator* sim_;
  DiskParams params_;
  Fifo<DiskRequest> queue_;
  bool busy_ = false;
  DiskRequest current_;     // the request being serviced while busy_
  int current_error_ = 0;   // the errno it completes with

  int64_t head_cylinder_ = 0;
  int64_t last_end_offset_ = -1;  // end of the previous media access
  std::list<Segment> segments_;   // most recently used first
  FaultHook fault_hook_;

  // Present only while a non-trivial plan is installed, so the disabled
  // case provably draws no randomness.
  struct FaultState {
    explicit FaultState(const DiskFaultPlan& p) : plan(p), rng(p.seed) {}
    DiskFaultPlan plan;
    Rng rng;
    std::unordered_set<int64_t> bad_offsets;  // permanent-mode grown defects
    int64_t bytes_written = 0;                // against write_byte_budget
  };
  std::unique_ptr<FaultState> fault_state_;
  int last_error_ = 0;

  TraceLog* trace_ = nullptr;
  int64_t transfer_serial_ = 0;   // stamps kDiskDispatch/kDiskComplete pairs
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_HW_DISK_H_
