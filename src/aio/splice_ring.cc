#include "src/aio/splice_ring.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/sim_state.h"

namespace ikdp {

// Ring krace probes are plain WRITEs: the FIFOs are read-modify-write
// (mid-queue erase, group pops) and every legal handoff has a real ordering
// edge — admission and harvest are schedule descendants of the process's
// dispatch, completions run in the serialized interrupt engine, and the
// retired FIFO -> Reap handoff rides the `reaper` ordering channel.  An
// unordered same-timestamp pair here would be a genuine bug.

SpliceRing::SpliceRing(int id, CpuSystem* cpu, CalloutTable* callouts, SpliceEngine* engine,
                       RingConfig config)
    : id_(id), cpu_(cpu), callouts_(callouts), engine_(engine), config_(config) {}

void SpliceRing::Trace(TraceKind kind, int64_t b) {
  if (cpu_->trace() != nullptr) {
    cpu_->trace()->Record(cpu_->sim()->Now(), kind, id_, b);
  }
}

int SpliceRing::NextGroupSize() const {
  if (prepared_.empty()) {
    return 0;
  }
  // A linked run: every member except the last carries kSqeLinked.  The flag
  // on the final prepared entry has no successor and is ignored.
  size_t i = 0;
  while (i + 1 < prepared_.size() && (prepared_[i].flags & kSqeLinked) != 0) {
    ++i;
  }
  return static_cast<int>(i) + 1;
}

SpliceRing::Op* SpliceRing::ClaimGroup(int n) {
  assert(n > 0 && static_cast<size_t>(n) <= prepared_.size());
  Op* first = nullptr;
  Op* prev = nullptr;
  lock_.Acquire();
  for (int i = 0; i < n; ++i) {
    Op* op = ops_.Acquire();
    IKDP_KRACE_WRITE(this, "SpliceRing::prepared_");
    op->sqe = prepared_.pop_front();
    op->st = Op::St::kClaimed;
    op->group_prev = prev;
    (prev == nullptr ? first : prev->group_next) = op;
    prev = op;
  }
  lock_.Release();
  return first;
}

void SpliceRing::AdmitGroup(Op* group, const Op* bad, int error) {
  for (Op* op = group; op != nullptr; op = op->group_next) {
    op->submitted_at = cpu_->sim()->Now();
    op->span_owned = KspanOwned();
    op->span = KspanBegin(op->submitted_at, "aio.op", static_cast<int64_t>(op->sqe.cookie));
    ++stats_.submitted;
    KspanScope scope("aio", op->span);
    Trace(TraceKind::kRingOpSubmit, static_cast<int64_t>(op->sqe.cookie));
    IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
    lock_.Acquire();
    if (bad == nullptr) {
      op->st = Op::St::kQueued;
      queued_.push_back(op);
    }
    stats_.sq_depth_max = std::max(stats_.sq_depth_max, ++live_);
    lock_.Release();
    if (bad != nullptr) {
      // A partial pipeline cannot run: the malformed SQE fails with its own
      // error and the rest of its group with ECANCELED.
      Retire(op, 0, op == bad ? error : kErrCanceled, cpu_->sim()->Now());
    }
  }
  if (bad == nullptr) {
    Pump();
  }
}

void SpliceRing::NoteSubmitBatch(int admitted) {
  Trace(TraceKind::kRingSubmit, admitted);
  Trace(TraceKind::kRingSqDepth, unfinished());
}

void SpliceRing::Pump() {
  for (;;) {
    // Lock per iteration: the head group is claimed (queued -> started)
    // under the lock, then started with the lock dropped — StartOp can run
    // the whole splice synchronously and re-enter Retire.
    lock_.Acquire();
    Op* const group = queued_.front();
    if (group == nullptr) {
      lock_.Release();
      return;
    }
    // A queued group is queued whole and back to back, and the head op is
    // its first member: cancelling a queued op retires its whole group.
    int gsize = 0;
    for (const Op* op = group; op != nullptr; op = op->group_next) {
      ++gsize;
    }
    // A group's stages start atomically (a pipeline member without its
    // consumer would wedge); a head group that doesn't fit blocks the line —
    // FIFO order is part of the submission contract.
    if (started_ + gsize > config_.max_inflight) {
      lock_.Release();
      return;
    }
    for (Op* op = group; op != nullptr; op = op->group_next) {
      IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
      assert(queued_.front() == op);
      queued_.pop_front()->st = Op::St::kStarted;
    }
    IKDP_KRACE_WRITE(this, "SpliceRing::started_");
    started_ += gsize;
    lock_.Release();
    // The group chain changes only at a claim and at Reap, neither of which
    // can run inside this loop.
    for (Op* op = group; op != nullptr; op = op->group_next) {
      // A synchronously-failing sibling may have cancelled this member
      // while an earlier member was starting.
      if (op->st == Op::St::kStarted) {
        StartOp(op);
      }
    }
  }
}

void SpliceRing::StartOp(Op* op) {
  // The engine mints its "splice.stream" span as a child of the cursor's —
  // push the op span so the stream nests under this op.
  KspanScope scope("aio", op->span);
  SpliceDescriptor* d =
      engine_->Start(std::move(op->ends.source), std::move(op->ends.sinks), std::move(op->opts),
                     [this, op](const SpliceCompletion& c) { OnEngineComplete(op, c); });
  // The splice can run to completion inside Start (synchronous devices);
  // only remember the descriptor while the op is still in flight.
  if (op->st == Op::St::kStarted) {
    op->desc = d;
  }
}

void SpliceRing::OnEngineComplete(Op* op, const SpliceCompletion& c) {
  KspanScope scope("aio", op->span);
  if (op->ends.on_moved && !c.io_error) {
    // Partial byte counts from a cancel still update sink-side file state:
    // those bytes are on the device.
    op->ends.on_moved(c.bytes_moved);
  }
  // Preserve the device's errno (kErrNoSpc stays distinguishable from a
  // media error); kErrIo only backstops a report with no errno attached.
  const int error =
      c.io_error ? (c.error != 0 ? c.error : kErrIo) : (c.cancelled ? kErrCanceled : 0);
  op->cqe.kop_active = c.kop_active;
  op->cqe.kop_checksum = c.kop_checksum;
  op->cqe.kop_dropped = c.kop_dropped;
  Retire(op, c.bytes_moved, error, c.finished_at);
  // An I/O error tears down the rest of the pipeline group — a downstream
  // stage would otherwise wait forever for bytes that will never arrive.
  // Cancel-driven completions do NOT re-propagate (that would recurse).
  if (c.io_error) {
    CancelGroupSiblings(op);
  }
}

void SpliceRing::Retire(Op* op, int64_t result, int error, SimTime finished_at) {
  op->cqe.cookie = op->sqe.cookie;
  op->cqe.result = result;
  op->cqe.error = error;
  op->cqe.latency = finished_at - op->submitted_at;
  if (error == kErrCanceled) {
    ++stats_.cancelled;
  }
  {
    KspanScope scope("aio", op->span);
    Trace(TraceKind::kRingOpComplete, static_cast<int64_t>(op->sqe.cookie));
  }
  // Retire runs exactly once per op (it asserts the op has not retired), so
  // the span closes exactly once — cancelled LINKED siblings included.
  if (op->span_owned) {
    KspanEnd(finished_at, op->span, result, error != 0);
  }
  IKDP_KRACE_WRITE(this, "SpliceRing::retired_");
  lock_.Acquire();
  assert(op->st != Op::St::kFree && op->st != Op::St::kRetired);
  if (op->st == Op::St::kQueued) {
    IKDP_KRACE_WRITE(this, "SpliceRing::queued_");
    [[maybe_unused]] const bool queued = queued_.Erase(op);
    assert(queued);
  } else if (op->st == Op::St::kStarted) {
    IKDP_KRACE_WRITE(this, "SpliceRing::started_");
    --started_;
  }
  op->st = Op::St::kRetired;
  op->desc = nullptr;
  retired_.push_back(op);
  lock_.Release();
  if (KraceEnabled()) Krace().ChannelRelease(&retired_);
  ArmReaper();
}

void SpliceRing::CancelGroupSiblings(Op* op) {
  // The group chain changes only at a claim and at Reap, neither of which
  // can run inside this loop, but Retire and engine_->Cancel change states
  // (Cancel can complete a drained descriptor synchronously).
  Op* m = op;
  while (m->group_prev != nullptr) {
    m = m->group_prev;
  }
  for (; m != nullptr; m = m->group_next) {
    if (m == op || m->st == Op::St::kRetired) {
      continue;
    }
    if (m->desc != nullptr) {
      // In flight: the engine drains it and the completion arrives with
      // cancelled=true (partial bytes reported).
      engine_->Cancel(m->desc);
    } else {
      Retire(m, 0, kErrCanceled, cpu_->sim()->Now());  // queued or not yet in the engine
    }
  }
}

int SpliceRing::Cancel(uint64_t cookie) {
  // Find under the lock, act after release: Retire takes the lock itself.
  Op* target = nullptr;
  bool started = false;
  lock_.Acquire();
  ops_.ForEach([&](Op& op) {
    if (target != nullptr || op.sqe.cookie != cookie) {
      return;
    }
    if (op.st == Op::St::kQueued) {
      target = &op;
    }
    started = started || op.st == Op::St::kStarted;
  });
  lock_.Release();
  if (target != nullptr) {
    Trace(TraceKind::kRingCancel, static_cast<int64_t>(cookie));
    Retire(target, 0, kErrCanceled, cpu_->sim()->Now());
    // A partial pipeline cannot run: the queued group goes down together.
    // (Groups start atomically, so no sibling can be mid-flight here.)
    CancelGroupSiblings(target);
    return 0;
  }
  return started ? -kErrBusy : -kErrNoent;
}

void SpliceRing::ArmReaper() {
  // The check-and-arm latch is one critical section, held across
  // ScheduleHead: a deliberate ring -> callout nesting (rank 20 -> 90;
  // ScheduleHead never calls back into the ring).
  lock_.Acquire();
  if (reaper_armed_) {
    lock_.Release();
    return;
  }
  reaper_armed_ = true;
  // The reaper rides the existing callout machinery, like the engine's
  // write-side drain: head of the callout list, charged as softclock work.
  callouts_->ScheduleHead([this] {
    cpu_->RunInterrupt(cpu_->costs().softclock_per_callout, [this] {
      lock_.Acquire();
      reaper_armed_ = false;
      lock_.Release();
      Reap();
    });
  });
  lock_.Release();
}

void SpliceRing::Reap() {
  ++stats_.reaps;
  if (KraceEnabled()) Krace().ChannelAcquire(&retired_);
  IKDP_KRACE_WRITE(this, "SpliceRing::retired_");
  int posted = 0;
  // The CQ fill is one critical section; the lock drops before the wakeups
  // and the pump (Pump takes it per iteration).
  lock_.Acquire();
  while (!retired_.empty()) {
    Op* op = retired_.pop_front();
    if (op->cqe.kop_active) {
      // Publishing an operator's results (checksum, drop count) into the CQE
      // is operator work: charge the fixed finalization cost here so it lands
      // in the kop softclock bucket, per op, under the op's span.
      KspanScope scope("kop", op->span);
      cpu_->ChargeKop(cpu_->costs().kop_stage_overhead);
    }
    IKDP_KRACE_WRITE(this, "SpliceRing::cq_");
    cq_.push_back(op->cqe);
    const int64_t staged = static_cast<int64_t>(cq_.size()) - config_.cq_entries;
    if (staged > 0) {
      ++stats_.overflows;
      Trace(TraceKind::kRingOverflow, staged);
    }
    ++stats_.completed;
    ++posted;
    // Recycle the slot: out of its group chain, back to a fresh op in the
    // table's free slots.
    if (op->group_prev != nullptr) {
      op->group_prev->group_next = op->group_next;
    }
    if (op->group_next != nullptr) {
      op->group_next->group_prev = op->group_prev;
    }
    ops_.Release(op);
    --live_;
  }
  lock_.Release();
  Trace(TraceKind::kRingReap, posted);
  // Posted completions free SQ slots and satisfy RingEnter's wait.
  cpu_->Wakeup(CqChan());
  cpu_->Wakeup(SqSpaceChan());
  Pump();
}

int SpliceRing::Harvest(SpliceCqe* out, int max) {
  SpinGuard g(lock_);
  int n = 0;
  while (n < max && !cq_.empty()) {
    IKDP_KRACE_WRITE(this, "SpliceRing::cq_");
    out[n++] = cq_.pop_front();
    ++stats_.harvested;
  }
  return n;
}

}  // namespace ikdp
