// The simulated CPU: process scheduling plus interrupt-level work.
//
// One CPU is shared by
//   * processes, dispatched by priority with round-robin among equals and a
//     4.3BSD-style 100 ms quantum, paying a context-switch cost on every
//     switch, and
//   * interrupt-level work (device interrupts, softclock callouts), which
//     *steals* cycles from whatever process is running: an in-progress CPU
//     burst is pushed back by the interrupt's duration.
//
// Processes consume CPU with `co_await cpu.Use(t)` and block with
// `co_await cpu.Sleep(chan, pri)`.  Wakeup(chan) makes sleepers runnable; a
// sleeper waking at a stronger priority than the running process preempts it
// immediately, which is how I/O-bound programs (cp) interleave with CPU
// hogs (the paper's test program).
//
// Interrupt-level work is serialized: overlapping requests queue.  A handler
// body may add to its own cost with ChargeInterrupt() as it discovers work
// (e.g. a RAM-disk copy performed inside biodone).
//
// The accounting identity used by the experiments:
//   elapsed = Σ process work + Σ context switches + Σ interrupt work + idle.

#ifndef SRC_KERN_CPU_H_
#define SRC_KERN_CPU_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/costs.h"
#include "src/kern/charge_ledger.h"
#include "src/kern/ctx.h"
#include "src/kern/process.h"
#include "src/sim/fifo.h"
#include "src/sim/kspan.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace ikdp {

class CpuSystem {
 public:
  CpuSystem(Simulator* sim, CostConfig costs);
  ~CpuSystem();

  CpuSystem(const CpuSystem&) = delete;
  CpuSystem& operator=(const CpuSystem&) = delete;

  const CostConfig& costs() const { return costs_; }
  Simulator* sim() { return sim_; }

  // --- process management ---

  // Creates a process whose body is produced by `factory` (invoked once, with
  // the new process).  The process becomes runnable immediately and starts
  // executing when first dispatched.  The returned pointer stays valid until
  // the CpuSystem is destroyed.
  Process* Spawn(std::string name, InlineFn<Task<>(Process&)> factory);

  // Number of processes not yet dead.
  int alive() const { return alive_; }

  // --- process-context primitives (call only from the running process) ---

  // Consumes `t` of CPU time, competing with other processes and interrupt
  // work.  t == 0 completes without suspending the simulation clock but may
  // still trigger a preemption check.
  IKDP_CTX_PROCESS SuspendAndCall Use(Process& p, SimDuration t);

  // Same machinery as Use(), but the work is in-kernel operator execution
  // (src/kop) performed on behalf of `p`: identical scheduling and ledger
  // totals, attributed to the kKopProcess bucket so the availability tables
  // can show what in-kernel computation costs separately from process work.
  IKDP_CTX_PROCESS SuspendAndCall UseKop(Process& p, SimDuration t);

  // Blocks on `chan` until Wakeup(chan).  On wakeup the process's priority
  // becomes `pri` (kernel sleep priority) until ResetPriority().  If
  // `interruptible` is true, a posted signal also wakes the process.
  IKDP_CTX_PROCESS SuspendAndCall Sleep(Process& p, const void* chan, int pri,
                                        bool interruptible = false);

  // --- callable from any context ---

  // Makes every process sleeping on `chan` runnable, in ascending pid order.
  // Costs one walk of `chan`'s sleep queue, whatever the process history.
  // May preempt the running process if a woken sleeper has a stronger
  // priority.
  IKDP_CTX_ANY void Wakeup(const void* chan);

  // Posts a signal; wakes the process if it is in an interruptible sleep.
  IKDP_CTX_ANY void Post(Process& p, int sig);

  // Runs `body` at interrupt level as soon as the CPU finishes any interrupt
  // work already in progress.  `overhead` is charged before any
  // ChargeInterrupt() additions made by the body.
  IKDP_CTX_ANY void RunInterrupt(SimDuration overhead, EventFn body);

  // Adds `t` to the cost of the interrupt-level work currently executing.
  // Must only be called from within a RunInterrupt body.
  IKDP_CTX_INTERRUPT void ChargeInterrupt(SimDuration t);

  // ChargeInterrupt for in-kernel operator execution (src/kop): same ledger
  // total (interrupt_work) and the same cycle-stealing, but attributed to
  // the kKopInterrupt / kKopSoftclock bucket matching the context that runs
  // the operator, so attribution shows operator cost per request exactly.
  IKDP_CTX_INTERRUPT void ChargeKop(SimDuration t);

  // True while a RunInterrupt body is executing.
  bool InInterrupt() const { return in_interrupt_; }

  // The currently running process, or nullptr (idle / interrupt only).
  Process* current() const { return current_; }

  // Attaches a ktrace-style event log (nullptr detaches; default off).
  void set_trace(TraceLog* trace) { trace_ = trace; }
  TraceLog* trace() const { return trace_; }

  // --- accounting ---

  // Books `t` of trap overhead against `p`'s mode-switch ledger
  // (Process::Stats::trap_time / syscall_traps).  Pure bookkeeping: the
  // caller still charges the time through Use(), so simulated behaviour is
  // unchanged.
  IKDP_CTX_PROCESS void AccountTrap(Process& p, SimDuration t) {
    p.stats_.trap_time += t;
    ++p.stats_.syscall_traps;
  }

  struct Stats {
    SimDuration process_work = 0;     // CPU granted to Use() calls
    SimDuration context_switch = 0;   // switch overhead
    SimDuration interrupt_work = 0;   // interrupt + softclock work
    uint64_t switches = 0;
    uint64_t interrupts = 0;
  };
  // Cumulative since simulation start; harnesses snapshot and diff to get
  // per-interval busy fractions.
  const Stats& stats() const { return stats_; }

  // --- per-span attribution (src/sim/kspan.h) ---
  //
  // Every ledger charge is mirrored into a (context, subsystem, span)
  // ChargeLedger (src/kern/charge_ledger.h):
  // process bursts carry the running process's span, switch costs the span
  // of the process being dispatched, interrupt/softclock work the kspan
  // cursor at charge time (captured at RunInterrupt for the base overhead,
  // read live for ChargeInterrupt additions).  The mirror is bookkeeping
  // only — it can never change simulated time — and it is EXACT:
  // CheckAttributionClosure() asserts the per-bucket sums equal the Stats
  // totals to the nanosecond, and every table bench runs it.

  // The ledger bucket a charge landed in.  kInterrupt vs kSoftclock is
  // decided by the execution context at RunInterrupt time: work raised from
  // a softclock callout (the splice write side) is softclock work.  The
  // kKop* buckets carve operator execution (src/kop) out of the same three
  // ledger totals: kKopProcess counts into process_work, kKopInterrupt and
  // kKopSoftclock into interrupt_work — the Stats identity is unchanged,
  // only the attribution mirror is finer.
  using ChargeBucket = ikdp::ChargeBucket;
  using ChargeKey = ikdp::ChargeKey;
  static constexpr int kNumChargeBuckets = ikdp::kNumChargeBuckets;

  // Sets `p`'s request span (Process::span) and, when `p` is the running
  // process, refreshes the live kspan cursor so records written before the
  // next suspension already carry the new span.
  IKDP_CTX_PROCESS void SetSpan(Process& p, SpanId span);

  // The attribution mirror as one entry per key ever charged, built when
  // called (see ChargeLedger::ToMap).  For end-of-run consumers.
  std::map<ChargeKey, SimDuration> attribution() const { return ledger_.ToMap(); }

  // True when the attribution mirror sums exactly to stats_: per-bucket,
  //   Σ kProcess + Σ kKopProcess == process_work,
  //   Σ kSwitch == context_switch,
  //   Σ kInterrupt + Σ kSoftclock + Σ kKopInterrupt + Σ kKopSoftclock
  //     == interrupt_work.
  // On failure fills `err` with the offending bucket and the two totals.
  bool CheckAttributionClosure(std::string* err) const;

 private:
  struct Burst {
    bool active = false;
    SimTime start = 0;            // when the burst began
    SimDuration planned = 0;      // work to complete in this burst
    SimDuration stolen = 0;       // interrupt time overlapping the burst
    SimDuration lead_in = 0;      // context-switch / residual-interrupt lead
    SimDuration switch_part = 0;  // portion of lead_in charged as switch cost
    EventId event = kInvalidEventId;
    bool is_quantum_slice = false;  // burst ends at quantum, work continues
  };

  struct PendingInterrupt {
    SimDuration overhead;
    EventFn body;
    // Attribution tag captured when the interrupt was raised: the kspan
    // cursor, plus whether the raiser ran at softclock level (classifying
    // the work as kSoftclock rather than kInterrupt).  The body runs under
    // this tag; handlers push refining scopes on top.
    const char* subsystem = "";
    SpanId span = kNoSpan;
    bool softclock = false;
  };

  // Inserts `p` into the run queue in priority order (FIFO within equal
  // priority); `front` additionally places it ahead of equals (used when a
  // preempted process should resume first among its peers).
  void Enqueue(Process* p, bool front = false);

  // Schedules a DispatchNext() event if none is pending and the CPU has no
  // running process.
  void RequestDispatch();
  void DispatchNext();

  // Starts executing the current process's outstanding work.  `switch_part`
  // is how much of `lead_in` was charged to the context-switch ledger at
  // dispatch time (refunded pro-rata if the burst is preempted mid-lead-in).
  void StartBurst(SimDuration lead_in, SimDuration switch_part = 0);
  void FinishBurst();

  // Removes the current process from the CPU (burst bookkeeping) and
  // enqueues it as runnable.  `front` as in Enqueue.
  void PreemptCurrent(bool front);

  // Runs queued interrupt work when the CPU reaches intr_busy_until_.
  void DrainInterrupts();

  // 4.3BSD schedcpu(): decays every process's CPU-usage estimate and
  // recomputes user-priority penalties.  Armed while processes are alive
  // and costs().priority_decay is set.
  void ArmDecayTimer();
  void DecayTick();

  // Adds completed work to the running process's usage estimate.
  void AccountUsage(Process* p, SimDuration work);

  // Shared body of Use()/UseKop(); `kop` selects which bucket AccountUsage
  // attributes completed bursts to (Process::kop_charge_).
  SuspendAndCall UseImpl(Process& p, SimDuration t, bool kop);

  // Resumes the process coroutine (first dispatch starts the body).
  void Activate(Process* p);

  // The sleep queue `chan` hashes to.
  Process** SleepQueue(const void* chan);
  // Unlinks the sleeper at `*link` from its sleep queue and marks it
  // runnable (the caller enqueues it).
  void Unsleep(Process** link);

  Simulator* sim_;
  CostConfig costs_;

  std::vector<std::unique_ptr<Process>> processes_;
  // 4.3BSD slpque: sleeping processes hashed by wait channel, each queue
  // linked through Process::sleep_next_ in ascending pid order.  Wakeup()
  // walks one queue of live sleepers, not every process ever spawned.  Pid
  // order fixes the wake order, and with it the run-queue FIFO ties among
  // the woken, that the Table 1/2 schedules were produced with.
  // Linked by process-context sleeps, unlinked by Wakeup() and Post() from
  // any context: the same tie-break argument as run_queue_, so COMMUTE.
  static constexpr int kSleepQueueBits = 6;
  std::array<Process*, size_t{1} << kSleepQueueBits> sleep_queues_ IKDP_GUARDED_BY(any) = {};
  // Mutated by process-context sleeps AND by Wakeup() from interrupt and
  // softclock handlers.  Priority order dominates dispatch; the only
  // same-timestamp sensitivity is FIFO order among simultaneous
  // equal-priority wakers, which is exactly the tie-break freedom the
  // schedule-perturbation mode validates, so the probes in cpu.cc are
  // COMMUTE (see the rationale block there), not plain writes.
  // Runnable processes in dispatch order (priority, then FIFO), linked
  // through Process::run_next_ like the sleep queues, so queueing a process
  // never allocates.
  Process* run_queue_ IKDP_GUARDED_BY(any) = nullptr;
  Process* current_ = nullptr;
  Burst burst_;
  // CPU time left in the current process's quantum.  Tracked across bursts
  // so a stream of short Use() calls cannot starve equal-priority peers.
  SimDuration slice_remaining_ = 0;
  bool dispatch_pending_ = false;
  int alive_ = 0;
  int next_pid_ = 1;

  bool decay_armed_ = false;
  TraceLog* trace_ = nullptr;

  // Interrupt engine.
  Fifo<PendingInterrupt> intr_queue_ IKDP_GUARDED_BY(any);
  SimTime intr_busy_until_ = 0;
  bool intr_drain_armed_ = false;
  bool in_interrupt_ = false;
  // Only the handler currently executing at interrupt level may add to its
  // own charge; ChargeInterrupt() asserts this dynamically too.
  SimDuration intr_charge_ IKDP_GUARDED_BY(interrupt) = 0;

  // Mirrors a charge into the attribution ledger (see attribution()).  Every
  // stats_ mutation site calls this with the same delta, which is what makes
  // CheckAttributionClosure exact.
  void Attribute(ChargeBucket bucket, const char* subsystem, SpanId span, SimDuration t);

  // The CPU ledger.  Every context books work here; the additions commute
  // (the experiment tables read only the totals), so probes use COMMUTE.
  Stats stats_ IKDP_GUARDED_BY(any);
  // The per-span mirror of stats_.  Same writers, same commutativity
  // argument, host-read-only consumers — GUARDED_BY(any) like the ledger.
  ChargeLedger ledger_ IKDP_GUARDED_BY(any);
  // Classification of the interrupt work currently draining (which bucket
  // ChargeInterrupt additions land in).  Written only while in_interrupt_.
  ChargeBucket intr_bucket_ IKDP_GUARDED_BY(interrupt) = ChargeBucket::kInterrupt;
};

}  // namespace ikdp

#endif  // SRC_KERN_CPU_H_
