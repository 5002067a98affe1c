// A simulated UNIX process.
//
// The process body is a C++20 coroutine (src/sim/task.h) that models the
// program text: it consumes CPU with CpuSystem::Use(), blocks with
// CpuSystem::Sleep(), and performs I/O through the syscall layer (src/os).
// This header holds the scheduling and signal state the kernel keeps per
// process; the descriptor table lives in the VFS layer.

#ifndef SRC_KERN_PROCESS_H_
#define SRC_KERN_PROCESS_H_

#include <bit>
#include <coroutine>
#include <cstdint>
#include <map>
#include <string>

#include "src/sim/inline_fn.h"
#include "src/sim/kspan.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace ikdp {

// Scheduling priorities, 4.3BSD style: numerically lower is stronger.
// Processes sleeping in the kernel wake at the priority of the resource they
// waited on, which is how I/O-bound programs preempt CPU hogs.
inline constexpr int kPriSwap = 0;
inline constexpr int kPriBio = 20;    // disk I/O (biowait)
inline constexpr int kPriSock = 24;   // socket buffer waits
inline constexpr int kPriWait = 30;   // pause(), wait()
inline constexpr int kPriUser = 50;   // base user-mode priority

// Signal numbers (the small subset the paper's programs use).  Pending
// signals are one bit each in a 64-bit mask.
inline constexpr int kSigAlrm = 14;
inline constexpr int kSigIo = 23;
static_assert(kSigAlrm < 64 && kSigIo < 64, "a pending signal is one bit of a uint64_t");

enum class ProcState {
  kEmbryo,    // created, never dispatched
  kRunnable,  // on the run queue
  kRunning,   // owns the CPU
  kSleeping,  // blocked on a channel
  kDead,      // body ran to completion
};

class Process {
 public:
  Process(int pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int pid() const { return pid_; }
  const std::string& name() const { return name_; }

  ProcState state() const { return state_; }
  bool dead() const { return state_ == ProcState::kDead; }

  // Current scheduling priority (may be boosted by a kernel sleep).
  int priority() const { return priority_; }

  // Restores the base user priority (plus any CPU-usage decay penalty when
  // the scheduler has priority decay enabled); the syscall layer calls this
  // when the process "returns to user mode".
  void ResetPriority() { priority_ = kPriUser + decay_penalty_; }

  // Recent CPU usage estimate (seconds, exponentially decayed) and the user
  // priority penalty derived from it.
  double cpu_estimate() const { return p_cpu_; }
  int decay_penalty() const { return decay_penalty_; }

  // The request span this process is currently serving (kNoSpan between
  // requests).  Survives suspensions — the scheduler re-pushes it onto the
  // kspan cursor at every resume, so a coroutine never holds a KspanScope
  // across co_await.  Set through CpuSystem::SetSpan, which also refreshes
  // the live cursor when the process is running.
  SpanId span() const { return span_; }

  // --- signals ---

  // Installs a handler.  A null function resets to default (ignore).
  void Sigaction(int sig, EventFn handler) {
    if (handler) {
      handler_[sig] = std::move(handler);
    } else {
      handler_.erase(sig);
    }
  }

  bool SignalPending() const { return pending_signals_ != 0; }

  // Runs and clears all pending signal handlers, lowest signal first.
  // Returns the number of signals taken.  Called by the syscall layer at
  // kernel-exit points.
  int TakeSignals() {
    int taken = 0;
    while (pending_signals_ != 0) {
      const int sig = std::countr_zero(pending_signals_);
      pending_signals_ &= pending_signals_ - 1;
      ++taken;
      auto it = handler_.find(sig);
      if (it != handler_.end()) {
        it->second();
      }
    }
    return taken;
  }

  // --- per-process accounting ---
  struct Stats {
    SimDuration cpu_time = 0;        // CPU granted through Use()
    uint64_t voluntary_switches = 0; // blocked on a channel
    uint64_t involuntary_switches = 0;
    uint64_t signals_taken = 0;
    // Mode-switch ledger: the portion of cpu_time that was pure syscall
    // trap overhead (entry/exit/validation), and how many kernel entries
    // paid it.  A batched submission interface (the splice ring) shows up
    // here as strictly fewer traps for the same amount of I/O.
    SimDuration trap_time = 0;
    uint64_t syscall_traps = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class CpuSystem;

  const int pid_;
  const std::string name_;

  ProcState state_ = ProcState::kEmbryo;
  int priority_ = kPriUser;
  SpanId span_ = kNoSpan;  // request being served; see span()
  double p_cpu_ = 0;        // decayed CPU usage estimate, in seconds
  int decay_penalty_ = 0;   // priority points added to kPriUser

  // Scheduler linkage.  The factory (typically a capturing lambda) must stay
  // alive as long as its coroutine frame: a lambda coroutine's captures live
  // in the closure object, not in the frame.
  InlineFn<Task<>(Process&)> body_factory_;
  Task<> body_;
  bool started_ = false;
  std::coroutine_handle<> resume_point_;
  SimDuration work_remaining_ = 0;  // outstanding Use() request
  // True while work_remaining_ came from UseKop(): completed bursts are
  // attributed to the kKopProcess bucket.  Frozen while the coroutine is
  // suspended (set at every Use entry), like span_.
  bool kop_charge_ = false;
  const void* sleep_channel_ = nullptr;
  bool sleep_interruptible_ = false;
  // Next process in this one's sleep queue (4.3BSD p_link); see
  // CpuSystem::sleep_queues_.
  Process* sleep_next_ = nullptr;
  // Next process on the run queue while runnable (4.3BSD p_link); see
  // CpuSystem::run_queue_.
  Process* run_next_ = nullptr;

  uint64_t pending_signals_ = 0;  // bit `sig` set: signal `sig` pending
  std::map<int, EventFn> handler_;

  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_KERN_PROCESS_H_
