#include "src/sim/sim_state.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "src/sim/task.h"

namespace ikdp {

namespace {

// A checker mode from the environment: "collect", "abort" or "1", anything
// else or unset is off.
template <typename Mode>
Mode ModeFromEnv(const char* var) {
  const char* v = std::getenv(var);
  if (v != nullptr && std::strcmp(v, "collect") == 0) {
    return Mode::kCollect;
  }
  if (v != nullptr && (std::strcmp(v, "1") == 0 || std::strcmp(v, "abort") == 0)) {
    return Mode::kAbort;
  }
  return Mode::kOff;
}

}  // namespace

namespace sim_state_internal {

constinit thread_local SimState* t_current = nullptr;

SimState& HostState() {
  thread_local SimState host(nullptr);
  return host;
}

}  // namespace sim_state_internal

void* FramePool::Allocate(size_t n) {
  const size_t c = SizeClass(n);
  if (c >= kClasses) {
    return ::operator new(n);
  }
  if (FreeFrame* f = free_[c]) {
    free_[c] = f->next;
    return f;
  }
  ++heap_frames_;
  return ::operator new((c + 1) * kGranule);
}

void FramePool::Free(void* p, size_t n) {
  const size_t c = SizeClass(n);
  if (c >= kClasses) {
    ::operator delete(p);
    return;
  }
  free_[c] = ::new (p) FreeFrame{free_[c]};
}

FramePool::~FramePool() {
  for (FreeFrame* f : free_) {
    while (f != nullptr) {
      ::operator delete(std::exchange(f, f->next));
    }
  }
}

SimState::SimState(const SimState* enclosing)
    : collector(enclosing != nullptr ? enclosing->collector : nullptr),
      krace(enclosing != nullptr ? enclosing->krace.mode()
                                 : ModeFromEnv<KraceDetector::Mode>("IKDP_KRACE"),
            enclosing != nullptr ? enclosing->krace.perturb_seed() : 0),
      lockdep(enclosing != nullptr ? enclosing->lockdep.mode()
                                   : ModeFromEnv<LockdepValidator::Mode>("IKDP_LOCKDEP")) {}

void SimState::FoldInto(SimState* enclosing) const {
  LockStats& to = enclosing->locks;
  to.spin_acquisitions += locks.spin_acquisitions;
  to.sleep_acquisitions += locks.sleep_acquisitions;
  to.sleep_contention += locks.sleep_contention;
  to.max_held = std::max(to.max_held, locks.max_held);
  to.max_held_rank = std::max(to.max_held_rank, locks.max_held_rank);
  enclosing->krace.Fold(krace);
  enclosing->lockdep.Fold(lockdep);
}

void* internal::PromiseBase::operator new(std::size_t n) {
  return CurrentSimState().frames.Allocate(n);
}

void internal::PromiseBase::operator delete(void* p, std::size_t n) {
  CurrentSimState().frames.Free(p, n);
}

}  // namespace ikdp
