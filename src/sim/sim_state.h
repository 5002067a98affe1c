// SimState: the per-simulation state of the simulated kernel — lock
// counters, execution context, kspan cursor and collector, the krace
// detector, the lockdep validator, the UDP datagram serial and the
// coroutine frame pool — so that no number from one run includes counts
// from another and a run's frames are recycled within it.  Each
// Simulator owns one; every accessor
// (GlobalLockStats, CurrentExecContext, CurrentKspan, Kspan, AttachKspan,
// Krace, Lockdep) resolves through CurrentSimState(), like NetBSD's
// curcpu().  Code that runs with no Simulator sees the thread's host state,
// whose checker modes come from IKDP_KRACE and IKDP_LOCKDEP.  One rule:
//
//   * construction: a Simulator's state copies the enclosing (current)
//     state's configuration — checker modes, perturbation seed, collector —
//     starts every counter and record fresh, and becomes current;
//   * each event: Simulator::Step makes the state current while it runs;
//   * destruction: the state adds its lock counters (sums; max for
//     max_held*), races and violations to the enclosing state, as exit()
//     folds a child's rusage into its parent, and the enclosing state
//     becomes current again.  Simulators nest; each host thread has its own
//     chain.

#ifndef SRC_SIM_SIM_STATE_H_
#define SRC_SIM_SIM_STATE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/kern/ctx.h"
#include "src/sim/krace.h"
#include "src/sim/kspan.h"
#include "src/sim/lockdep.h"

namespace ikdp {

// Always-on lock counters (exported as lock.* in ikdp.telemetry.v1).
// Plain increments and max-tracking: no simulated time, no allocation.
struct LockStats {
  uint64_t spin_acquisitions = 0;
  uint64_t sleep_acquisitions = 0;
  // Times a SleepLock acquire found the lock held and slept.  Always zero in
  // the shipped benches: every deployed critical section is non-suspending.
  uint64_t sleep_contention = 0;
  int cur_held = 0;       // locks currently held
  int max_held = 0;       // max locks held simultaneously this run
  int max_held_rank = 0;  // highest rank ever held (0 = none yet)
};

// The coroutine frames of one run (src/sim/task.h).  A freed frame waits on
// its size class's free list for the next frame of that class, so a run
// that keeps repeating the same calls stops allocating frames once warm.
// Frames are plain heap blocks: one freed under another run, or after its
// own run ended, joins the lists of whichever state is current then.  The
// lists go back to the heap when the pool is destroyed with its state.
// Not thread-safe; each host thread has its own chain of states.
class FramePool {
 public:
  FramePool() = default;
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  void* Allocate(size_t n);
  // `n` is the size the frame was allocated with.
  void Free(void* p, size_t n);

  // Pooled frames this pool has taken from the heap.
  uint64_t heap_frames() const { return heap_frames_; }

 private:
  struct FreeFrame {
    FreeFrame* next;
  };
  // Size classes of 64 bytes up to 2 KiB; larger frames bypass the pool.
  static constexpr size_t kGranule = 64;
  static constexpr size_t kClasses = 32;
  static size_t SizeClass(size_t n) { return (n - 1) / kGranule; }

  std::array<FreeFrame*, kClasses> free_{};
  uint64_t heap_frames_ = 0;
};

struct SimState {
  // nullptr makes a host state: checker modes from the environment, no
  // collector.  Otherwise the state of a run nested in `enclosing`: its
  // configuration, fresh counters and records.
  explicit SimState(const SimState* enclosing);

  // Adds this run's lock counters, races and violations to `enclosing`.
  void FoldInto(SimState* enclosing) const;

  LockStats locks;
  ExecContext context = ExecContext::kHost;
  KspanCursor kspan;
  KspanCollector* collector;
  KraceDetector krace;
  LockdepValidator lockdep;
  // The last UDP datagram serial minted this run (src/net/udp_socket.cc).
  uint64_t datagram_serial = 0;
  FramePool frames;
};

namespace sim_state_internal {
// nullptr stands for the thread's host state, which is built on first use.
extern constinit thread_local SimState* t_current;
SimState& HostState();
}  // namespace sim_state_internal

inline SimState& CurrentSimState() {
  SimState* s = sim_state_internal::t_current;
  return s != nullptr ? *s : sim_state_internal::HostState();
}

// Makes `s` current and returns the previously current state.
inline SimState* SwapCurrentSimState(SimState* s) {
  SimState* prev = &CurrentSimState();
  sim_state_internal::t_current = s;
  return prev;
}

// The current run's lock counters, detector and validator.
inline LockStats& GlobalLockStats() { return CurrentSimState().locks; }
inline KraceDetector& Krace() { return CurrentSimState().krace; }
inline LockdepValidator& Lockdep() { return CurrentSimState().lockdep; }

// Off-mode probes: loads and branches, never a call.  Before the host state
// is built there is no run to check (host-side accesses are exempt anyway).
inline bool KraceEnabled() {
  const SimState* s = sim_state_internal::t_current;
  return s != nullptr && s->krace.enabled();
}
inline bool LockdepEnabled() { return CurrentSimState().lockdep.enabled(); }

// Field-access probes.  `obj` is the owning object (identity), `field` a
// string literal naming it "Class::member".  Place at the mutation/read
// site; when the detector is off these cost one predictable branch.
#define IKDP_KRACE_ACCESS_(obj, field, kind)                                        \
  do {                                                                              \
    if (::ikdp::KraceEnabled())                                                     \
      ::ikdp::Krace().OnAccess((obj), (field), ::ikdp::KraceAccess::kind, __FILE__, \
                               __LINE__);                                           \
  } while (0)
#define IKDP_KRACE_READ(obj, field) IKDP_KRACE_ACCESS_(obj, field, kRead)
#define IKDP_KRACE_WRITE(obj, field) IKDP_KRACE_ACCESS_(obj, field, kWrite)
#define IKDP_KRACE_COMMUTE(obj, field) IKDP_KRACE_ACCESS_(obj, field, kCommute)

}  // namespace ikdp

#endif  // SRC_SIM_SIM_STATE_H_
