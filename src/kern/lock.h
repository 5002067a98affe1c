// Lock primitives for the simulated kernel: SpinLock and SleepLock.
//
// The simulation runs on one host thread, so these locks never spin or
// contend at host level — they install the DISCIPLINE the SMP kernel will
// need (ROADMAP: per-CPU run queues, interrupt steering).  Structures shared
// across the logically-concurrent contexts (process / interrupt / softclock)
// move from pure context-set annotations to `IKDP_GUARDED_BY(lock:<name>)`,
// and both halves of klock check the discipline: tools/kcheck statically
// (acquisition order, guard coverage, sleep-under-spinlock), and the lockdep
// validator (src/sim/lockdep.h) dynamically per run.
//
//  * SpinLock — usable from any context, including interrupt and softclock.
//    Never sleeps.  On a uniprocessor a contended spin lock IS a deadlock
//    (the holder can never run while the acquirer spins), so re-acquisition
//    aborts; critical sections must not span a suspension point (co_await)
//    or a synchronous completion path that re-enters the lock.
//
//  * SleepLock — process context only.  A contended acquire sleeps the
//    process on the lock's channel (standard Sleep/Wakeup, so the contended
//    path rides the existing scheduler cost model); the uncontended path
//    charges nothing.  AcquireUncontended() is for non-suspending critical
//    sections where contention is impossible by construction — it aborts if
//    that reasoning ever breaks.
//
// COST MODEL: the uncontended fast path of both locks charges ZERO simulated
// time — Tables 1 and 2 stay byte-identical with every lock installed
// (bench/perturb_tables proves it across seeds).  Acquisitions are counted
// per run in the current SimState's LockStats (src/sim/sim_state.h).
//
// Every lock carries a name and a rank (IKDP_LOCK_RANK annotation on the
// member, same values passed to the constructor).  Ranks order the lock
// hierarchy: lower = outer, and an acquisition must carry a strictly greater
// rank than every lock already held.  The rank table lives in docs/klock.md.

#ifndef SRC_KERN_LOCK_H_
#define SRC_KERN_LOCK_H_

#include "src/kern/ctx.h"
#include "src/sim/sim_state.h"
#include "src/sim/task.h"

namespace ikdp {

// Sleep priority for SleepLock waiters: between disk I/O and user waits.
inline constexpr int kPriLock = 28;

class IKDP_TSA_CAPABILITY("mutex") SpinLock {
 public:
  constexpr SpinLock(const char* name, int rank) : name_(name), rank_(rank) {}

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  // Any context.  Aborts on re-acquisition (uniprocessor deadlock) unless
  // lockdep collect mode is recording violations instead.
  void Acquire() IKDP_TSA_ACQUIRE();
  void Release() IKDP_TSA_RELEASE();

  bool held() const { return held_; }
  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  const char* name_;
  int rank_;
  bool held_ = false;
};

// RAII scope for a SpinLock critical section.  Only for non-coroutine
// scopes: a guard living in a coroutine frame would hold the lock across
// co_await, which is sleep-under-spinlock.
class IKDP_TSA_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) IKDP_TSA_ACQUIRE(lock) : lock_(&lock) {
    lock_->Acquire();
  }
  ~SpinGuard() IKDP_TSA_RELEASE() { lock_->Release(); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock* lock_;
};

class IKDP_TSA_CAPABILITY("mutex") SleepLock {
 public:
  constexpr SleepLock(const char* name, int rank) : name_(name), rank_(rank) {}

  SleepLock(const SleepLock&) = delete;
  SleepLock& operator=(const SleepLock&) = delete;

  // Process context.  For critical sections that cannot suspend (pure map
  // lookups, descriptor-table edits): contention is impossible by
  // construction, and this aborts if that construction ever breaks.
  IKDP_CTX_PROCESS void AcquireUncontended() IKDP_TSA_ACQUIRE();

  // Process context, may sleep when contended.  Templated on CpuSystem so
  // this header stays at the ctx layer (no src/kern/cpu.h dependency).
  // Thread-safety analysis of the body is off: the acquisition happens
  // through TakeOwnership after zero or more suspensions, a shape the
  // coroutine-frame-blind analysis cannot follow; callers still see the
  // acquire contract.
  template <typename CpuT, typename ProcT>
  IKDP_CTX_PROCESS Task<> Acquire(CpuT* cpu, ProcT& p) IKDP_TSA_ACQUIRE()
      IKDP_TSA_NO_ANALYSIS {
    while (held_) {
      ++GlobalLockStats().sleep_contention;
      co_await cpu->Sleep(p, this, kPriLock, /*interruptible=*/false);
    }
    TakeOwnership();
  }

  // Release with waiter wakeup (pairs with Acquire).
  template <typename CpuT>
  void Release(CpuT* cpu) IKDP_TSA_RELEASE() {
    ReleaseOwnership();
    cpu->Wakeup(this);
  }

  // Release without wakeup (pairs with AcquireUncontended: no waiter can
  // exist when every critical section is non-suspending).
  void Release() IKDP_TSA_RELEASE() { ReleaseOwnership(); }

  bool held() const { return held_; }
  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  void TakeOwnership() IKDP_TSA_ACQUIRE();
  void ReleaseOwnership() IKDP_TSA_RELEASE();

  const char* name_;
  int rank_;
  bool held_ = false;
};

}  // namespace ikdp

#endif  // SRC_KERN_LOCK_H_
