// The asynchronous splice submission/completion ring.
//
// FASYNC+SIGIO (paper Section 3) asynchronizes ONE splice per process: one
// signal with no per-operation status, and every submission still pays a
// full syscall trap.  The ring generalizes the paper's mechanism to N
// concurrent streams by amortizing kernel entries over batches — the
// syscall-aggregation idea of AnyCall and "BPF for storage" (PAPERS.md):
//
//  * a process PREPARES splice descriptors (SQEs) in its submission queue
//    with no kernel involvement at all;
//  * one RingEnter trap admits a whole batch, builds the endpoints in
//    process context, and starts as many operations as the in-flight cap
//    allows (the rest queue FIFO);
//  * completions are retired into the completion queue by a softclock
//    reaper riding the existing callout machinery; harvesting posted CQEs
//    never traps.
//
// Backpressure: a ring admits at most `sq_entries` unfinished operations.
// When the queue is full, RingEnter either returns EAGAIN or blocks until
// the reaper frees slots (`block_on_full`) — both policies are modeled.
// A full CQ never loses completions: they stage in an overflow tail and
// move up into the CQ as entries are harvested.
//
// LINKED groups: an SQE carrying kSqeLinked chains with its successor into
// a pipeline group (disk -> pipe -> net).  Unlike io_uring's sequential
// links, a group's stages start CONCURRENTLY and atomically — stage k+1
// must consume stage k's output as it streams (a pipe's capacity is far
// smaller than a transfer), so sequential links would deadlock.  Admission,
// start, and cancellation treat a group as one unit, and a member's failure
// cancels its siblings.
//
// Each op lives in one slot of one table from RingEnter to Reap, and its
// state is the only record of where it is.  Slots are recycled at Reap, so
// the table holds the peak count of unfinished ops.
//
// This layer knows nothing about file descriptors: the syscall layer
// (src/os/kernel.cc) claims a group's slots, resolves each SQE into engine
// endpoints in place, and admits the group.

#ifndef SRC_AIO_SPLICE_RING_H_
#define SRC_AIO_SPLICE_RING_H_

#include <cstdint>

#include "src/hw/fault.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/kern/lock.h"
#include "src/sim/callout.h"
#include "src/sim/fifo.h"
#include "src/sim/sim_state.h"
#include "src/sim/slot_pool.h"
#include "src/splice/splice_engine.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "ring" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define ring_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

// SQE flag: this entry and its successor form one pipeline group (see the
// header comment — stages start concurrently, not sequentially).  The flag
// on the last prepared entry is ignored.
inline constexpr uint32_t kSqeLinked = 1u << 0;

// A submission-queue entry: one splice, described the way splice(2) takes
// its arguments, plus a user cookie echoed in the completion.
struct SpliceSqe {
  int src_fd = -1;
  int dst_fd = -1;
  int64_t nbytes = 0;   // kSpliceEof for until-end-of-stream
  uint32_t flags = 0;   // kSqeLinked
  uint64_t cookie = 0;  // echoed in the CQE; keep unique among in-flight ops
  // Operator program to run on every chunk of this splice (a kop_load(2)
  // id; 0 = none).  The syscall layer resolves the id and refuses programs
  // that cannot ride a single-sink op (route stages) or would drop bytes
  // into a seekable sink (filters writing a regular file).
  int kop_id = 0;
};

// A completion-queue entry.
struct SpliceCqe {
  uint64_t cookie = 0;
  int64_t result = 0;       // bytes moved (partial counts on cancel)
  // 0 on success; otherwise the errno of the failure.  Device errors keep
  // their identity (kErrIo vs kErrNoSpc per the engine's completion
  // report); kErrCanceled / kErrInval / kErrBadf come from the ring and
  // syscall layers.
  int error = 0;
  SimDuration latency = 0;  // admission -> completion
  // Operator results (meaningful only when the SQE carried a kop_id):
  // running checksum over the stream and chunks filtered in-kernel.
  bool kop_active = false;
  uint64_t kop_checksum = 0;
  int64_t kop_dropped = 0;
};

struct RingConfig {
  int sq_entries = 32;   // cap on unfinished (admitted, unposted) ops
  int cq_entries = 64;   // CQ capacity; completions past it stage in overflow
  int max_inflight = 8;  // ops running in the splice engine at once
  bool block_on_full = false;  // RingEnter blocks for SQ space instead of EAGAIN
};

class SpliceRing {
 public:
  SpliceRing(int id, CpuSystem* cpu, CalloutTable* callouts, SpliceEngine* engine,
             RingConfig config);

  SpliceRing(const SpliceRing&) = delete;
  SpliceRing& operator=(const SpliceRing&) = delete;

  int id() const { return id_; }
  const RingConfig& config() const { return config_; }

  // --- user-side SQ (no trap, no kernel state) ---

  void Prepare(const SpliceSqe& sqe) {
    IKDP_KRACE_WRITE(this, "SpliceRing::prepared_");
    prepared_.push_back(sqe);
  }

  // --- kernel-side admission (called by Kernel::RingEnter) ---

  // One ring op, in one slot of the op table from RingEnter to Reap.  The
  // syscall layer resolves a claimed op's `sqe` into `ends` and `opts`;
  // every other field is the ring's.
  struct Op {
    enum class St : uint8_t { kFree, kClaimed, kQueued, kStarted, kRetired };
    SpliceSqe sqe;
    SpliceEndpoints ends;  // one sink, plus the sink-side file update
    SpliceOptions opts;    // engine tuning for this op
    // The op's LINKED group in SQE order.  Reap unlinks an op it recycles,
    // so the chain holds exactly the group's members still in the table.
    Op* group_prev = nullptr;
    Op* group_next = nullptr;
    St st = St::kFree;
    Op* next = nullptr;  // link on the queued or retired FIFO, per `st`
    SpliceDescriptor* desc = nullptr;  // valid while kStarted
    // The op's kspan ("aio.op"), minted at admission as a child of the
    // submitting process's span; ended exactly once at Retire — including
    // cancelled LINKED siblings, which retire like any other op.
    SpanId span = kNoSpan;
    bool span_owned = false;  // minted (must End) vs inherited
    SimTime submitted_at = 0;
    SpliceCqe cqe;  // filled at Retire, posted by Reap
  };

  // Length of the linked run at the head of the prepared queue (0 if empty).
  int NextGroupSize() const;

  // True when `group_size` more ops fit under the sq_entries cap.
  bool CanAdmit(int group_size) const {
    SpinGuard g(lock_);
    return UnfinishedLocked() + group_size <= config_.sq_entries;
  }

  // Pops the next `n` prepared SQEs into op slots, linked as one group in
  // SQE order, and returns the first.  A claimed op is not unfinished until
  // AdmitGroup takes it; its slot keeps its address until Reap recycles it.
  IKDP_CTX_PROCESS Op* ClaimGroup(int n);

  // Admits a claimed group: records each op's submission, then queues the
  // group and starts what the in-flight cap allows (in the caller's context:
  // synchronous-device setup costs land in the engine's sync-charge ledger
  // for the syscall layer to drain).  If `bad` is set nothing starts: `bad`
  // fails with `error`, the rest with kErrCanceled, posted by the reaper.
  IKDP_CTX_PROCESS void AdmitGroup(Op* group, const Op* bad, int error);

  // Records the batch-level trace events (kRingSubmit, kRingSqDepth) after
  // an admission loop; `admitted` counts SQEs, including failed ones.
  IKDP_CTX_PROCESS void NoteSubmitBatch(int admitted);

  // --- completions ---

  // Copies up to `max` posted CQEs into `out`, oldest first; the overflow
  // stage moves up into the CQ as entries drain.  Never blocks, never traps.
  IKDP_CTX_PROCESS int Harvest(SpliceCqe* out, int max);

  // Posted, unharvested completions (CQ + overflow stage).
  int CqAvailable() const {
    SpinGuard g(lock_);
    return static_cast<int>(cq_.size());
  }

  // Cancels a QUEUED op by cookie: it retires with kErrCanceled (its queued
  // group siblings with it, since a partial pipeline cannot run).  Returns 0,
  // -kErrBusy if the op already started, or -kErrNoent for an unknown
  // cookie.
  IKDP_CTX_PROCESS int Cancel(uint64_t cookie);

  // Admitted ops whose completion has not been posted yet.
  int unfinished() const {
    SpinGuard g(lock_);
    return UnfinishedLocked();
  }

  // Sleep channels for the two backpressure waits.
  const void* SqSpaceChan() const { return &sq_space_chan_; }
  const void* CqChan() const { return &cq_chan_; }

  struct Stats {
    uint64_t submitted = 0;   // SQEs admitted (including immediate failures)
    uint64_t completed = 0;   // CQEs posted
    uint64_t harvested = 0;   // CQEs handed to the process
    uint64_t cancelled = 0;   // ops retired via Cancel (incl. group siblings)
    uint64_t eagain_returns = 0;  // RingEnter calls bounced with EAGAIN
    uint64_t overflows = 0;   // completions that had to stage in overflow
    uint64_t reaps = 0;       // reaper passes
    int sq_depth_max = 0;     // high-water mark of unfinished ops
  };
  const Stats& stats() const { return stats_; }
  void NoteEagain() { ++stats_.eagain_returns; }

 private:
  // Starts queued groups FIFO while the in-flight cap has room for a whole
  // group (groups start atomically; a too-big head group blocks the line).
  IKDP_CTX_ANY void Pump();

  IKDP_CTX_ANY void StartOp(Op* op);

  // Engine completion: fills the op's CQE, cancels group siblings on error,
  // and arms the reaper.
  IKDP_CTX_ANY void OnEngineComplete(Op* op, const SpliceCompletion& c);

  // Fills the op's CQE, ends its span and links it onto the retired FIFO.
  IKDP_CTX_ANY void Retire(Op* op, int64_t result, int error, SimTime finished_at);

  // Cancels every not-yet-retired member of `op`'s group but `op`, in SQE
  // order: queued members retire immediately, started members are
  // cancelled in the engine (their completion arrives with cancelled=true).
  IKDP_CTX_ANY void CancelGroupSiblings(Op* op);

  IKDP_CTX_ANY void ArmReaper();

  // Softclock reaper body: posts retired completions into the CQ (or the
  // overflow stage), recycles their slots, wakes waiters, and pumps
  // newly-fitting queued ops.
  IKDP_CTX_SOFTCLOCK void Reap();

  // Lock-held variant of unfinished() for internal admission-control sites.
  // IKDP_REQUIRES seeds the kcheck entry-held fixpoint and becomes
  // requires_capability under TSA.
  IKDP_REQUIRES(ring) int UnfinishedLocked() const { return live_; }

  void Trace(TraceKind kind, int64_t b);

  const int id_;
  CpuSystem* cpu_;
  CalloutTable* callouts_;
  SpliceEngine* engine_;
  const RingConfig config_;

  // The ring lock (docs/klock.md): guards the op table and its FIFOs, the
  // completion queue, and the reaper latch.  It is fine-grained — never held
  // across engine_->Start / engine_->Cancel (both can complete an op
  // synchronously and re-enter Retire) — but IS held across ScheduleHead in
  // ArmReaper, a deliberate ring -> callout nesting (legal by rank; the
  // callout table never calls back synchronously).  `mutable` lets const
  // accessors (unfinished, CqAvailable) lock.
  mutable SpinLock lock_ IKDP_LOCK_RANK(ring, 20) = SpinLock("ring", 20);
  // The user-side SQ exists purely in process context (Prepare and
  // ClaimGroup never leave the submitting process) and stays
  // context-guarded — no lock warranted.  The op table and the FIFOs
  // threaded through it are touched by admission (process), engine
  // completions (interrupt), and the reaper (softclock); the retired FIFO's
  // handoff from completion to reaper also rides the `reaper` krace ordering
  // channel.  The completion queue is filled at softclock (Reap) and drained
  // in process context (Harvest).
  Fifo<SpliceSqe> prepared_ IKDP_GUARDED_BY(process);  // user-side SQ
  // The op table: a slot pool, because the FIFO and group links and the
  // engine's completion closures hold op addresses while the table grows.
  SlotPool<Op> ops_ IKDP_GUARDED_BY(lock:ring);
  IntrusiveFifo<Op, &Op::next> queued_ IKDP_GUARDED_BY(lock:ring);
  IntrusiveFifo<Op, &Op::next> retired_ IKDP_GUARDED_BY(lock:ring);
  int started_ IKDP_GUARDED_BY(lock:ring) = 0;
  int live_ IKDP_GUARDED_BY(lock:ring) = 0;  // queued, started or retired
  // Posted completions, oldest first: the first cq_entries are the CQ, the
  // rest the overflow stage.
  Fifo<SpliceCqe> cq_ IKDP_GUARDED_BY(lock:ring);

  bool reaper_armed_ IKDP_GUARDED_BY(lock:ring) = false;
  char sq_space_chan_ = 0;  // address-only sleep channels
  char cq_chan_ = 0;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_AIO_SPLICE_RING_H_
