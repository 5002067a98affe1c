#include "src/kern/lock.h"

#include <algorithm>

namespace ikdp {

namespace {
void NoteAcquired(LockStats& s, int rank) {
  ++s.cur_held;
  s.max_held = std::max(s.max_held, s.cur_held);
  s.max_held_rank = std::max(s.max_held_rank, rank);
}
}  // namespace

void SpinLock::Acquire() {
  SimState& st = CurrentSimState();
  if (held_) {
    // A contended spin lock on a uniprocessor is a deadlock: the holder can
    // never run while this context spins.  Under lockdep the validator owns
    // the report (collect mode records it and treats the acquire as a
    // re-entrant no-op so the run can continue).
    if (st.lockdep.enabled()) {
      st.lockdep.OnAcquire(this, name_, rank_, /*spin=*/true);
      return;
    }
    ContractAbort("SpinLock %s: re-acquired while held (uniprocessor deadlock)", name_);
  }
  ++st.locks.spin_acquisitions;
  NoteAcquired(st.locks, rank_);
  if (st.lockdep.enabled()) {
    st.lockdep.OnAcquire(this, name_, rank_, /*spin=*/true);
  }
  held_ = true;
}

void SpinLock::Release() {
  if (!held_) {
    ContractAbort("SpinLock %s: released while not held", name_);
  }
  SimState& st = CurrentSimState();
  if (st.lockdep.enabled()) {
    st.lockdep.OnRelease(this, name_);
  }
  held_ = false;
  --st.locks.cur_held;
}

void SleepLock::AcquireUncontended() {
  if (held_) {
    ContractAbort(
        "SleepLock %s: AcquireUncontended found the lock held — a critical "
        "section spanned a suspension point",
        name_);
  }
  TakeOwnership();
}

void SleepLock::TakeOwnership() {
  SimState& st = CurrentSimState();
  ++st.locks.sleep_acquisitions;
  NoteAcquired(st.locks, rank_);
  if (st.lockdep.enabled()) {
    // Taking a sleep lock is a may-block point even when it does not sleep:
    // holding a SpinLock here is the sleep-under-spinlock hazard.
    st.lockdep.OnMayBlock(name_);
    st.lockdep.OnAcquire(this, name_, rank_, /*spin=*/false);
  }
  held_ = true;
}

void SleepLock::ReleaseOwnership() {
  if (!held_) {
    ContractAbort("SleepLock %s: released while not held", name_);
  }
  SimState& st = CurrentSimState();
  if (st.lockdep.enabled()) {
    st.lockdep.OnRelease(this, name_);
  }
  held_ = false;
  --st.locks.cur_held;
}

}  // namespace ikdp
