// lockdep: dynamic lock-discipline validation for the simulated kernel's
// lock primitives (src/kern/lock.h), mirroring krace's shape.
//
// The simulation is single-threaded, so a lock can never be *contended* at
// host level — what lockdep checks is the DISCIPLINE the SMP kernel will
// need: every run records the observed acquisition-order graph (lock A held
// while B is acquired ⇒ edge A→B) and validates, as the run executes, that
//
//  * no acquisition closes a cycle in that graph (order inversion: some
//    other site acquires the same pair in the opposite order — on SMP that
//    pair of paths deadlocks),
//  * declared ranks are monotone (IKDP_LOCK_RANK gives every lock a rank;
//    lower = outer; acquiring a rank not strictly greater than every held
//    rank is an ordering bug even before a cycle exists),
//  * no non-recursive lock is re-acquired while held (double-acquire), and
//  * no blocking primitive runs while a SpinLock is held
//    (sleep-under-spinlock: a spinning CPU cannot give up the processor).
//
// This is the dynamic half of the klock checker; tools/kcheck enforces the
// same rules statically over the IKDP_ACQUIRES/IKDP_RELEASES/IKDP_EXCLUDES/
// IKDP_LOCK_RANK annotations (docs/klock.md).  Like krace, the validator is
// host-side only, and each Simulator owns one in its SimState
// (src/sim/sim_state.h, which defines Lockdep()), so the edge graph is per
// run.  The mode comes from IKDP_LOCKDEP ("abort", "1", "collect", anything
// else/unset = off) or SetMode().

#ifndef SRC_SIM_LOCKDEP_H_
#define SRC_SIM_LOCKDEP_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ikdp {

class LockdepValidator {
 public:
  enum class Mode : uint8_t {
    kOff = 0,   // hooks compile to a flag test
    kCollect,   // record violations; tests assert on violations()
    kAbort,     // first violation calls ContractAbort with both chains
  };

  explicit LockdepValidator(Mode mode) : mode_(mode) {}

  LockdepValidator(const LockdepValidator&) = delete;
  LockdepValidator& operator=(const LockdepValidator&) = delete;

  Mode mode() const { return mode_; }
  bool enabled() const { return mode_ != Mode::kOff; }
  void SetMode(Mode mode) { mode_ = mode; }

  struct Violation {
    std::string kind;  // order-inversion | rank | double-acquire | sleep-under-spinlock
    std::string detail;
    std::string Describe() const;
  };

  const std::vector<Violation>& violations() const { return violations_; }

  // Adds a finished run's violations to this validator's report.
  void Fold(const LockdepValidator& run);

  // The observed acquisition-order graph: (outer, inner) → first witness.
  const std::map<std::pair<std::string, std::string>, std::string>& edges() const {
    return edges_;
  }

  // --- hooks (called by the lock primitives when enabled()) ---

  // `spin` marks a SpinLock (sleep-under-spinlock applies).  Detects
  // double-acquire, rank violations, and order inversions, then pushes the
  // lock onto the held stack and records edges from every held lock.
  void OnAcquire(const void* lock, const char* name, int rank, bool spin);
  void OnRelease(const void* lock, const char* name);

  // Called on entry to every blocking primitive (AssertCanBlock) and on
  // SleepLock acquisition: a held SpinLock here is sleep-under-spinlock.
  void OnMayBlock(const char* what);

 private:
  struct Held {
    const void* lock;
    std::string name;
    int rank;
    bool spin;
  };

  // Is `to` reachable from `from` in the recorded edge graph?
  bool Reachable(const std::string& from, const std::string& to) const;
  void Report(const char* kind, std::string detail);

  Mode mode_;
  std::vector<Held> held_;
  std::map<std::pair<std::string, std::string>, std::string> edges_;
  std::vector<Violation> violations_;
};

}  // namespace ikdp

#endif  // SRC_SIM_LOCKDEP_H_
