#include "src/kern/ctx.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/sim/sim_state.h"

namespace ikdp {

const char* ExecContextName(ExecContext c) {
  switch (c) {
    case ExecContext::kHost:
      return "host";
    case ExecContext::kProcess:
      return "process";
    case ExecContext::kInterrupt:
      return "interrupt";
    case ExecContext::kSoftclock:
      return "softclock";
  }
  return "?";
}

ExecContext CurrentExecContext() { return CurrentSimState().context; }

bool AtInterruptLevel() {
  const ExecContext c = CurrentExecContext();
  return c == ExecContext::kInterrupt || c == ExecContext::kSoftclock;
}

ContextGuard::ContextGuard(ExecContext ctx) : prev_(CurrentExecContext()) {
  CurrentSimState().context = ctx;
}

ContextGuard::~ContextGuard() { CurrentSimState().context = prev_; }

void AssertCanBlock(const char* what) {
  if (AtInterruptLevel()) {
    ContractAbort(
        "%s at %s level: blocking primitives may only run in process context "
        "(IKDP_CTX_PROCESS); an interrupt/softclock path reached a sleep",
        what, ExecContextName(CurrentExecContext()));
  }
  // Every blocking primitive funnels through here, so this is the one
  // dynamic probe lockdep needs for sleep-under-spinlock.
  if (LockdepEnabled()) {
    Lockdep().OnMayBlock(what);
  }
}

void AssertInterruptLevel(const char* what) {
  if (CurrentExecContext() != ExecContext::kInterrupt) {
    ContractAbort(
        "%s in %s context: interrupt CPU accounting is only legal inside a "
        "RunInterrupt body (IKDP_CTX_INTERRUPT)",
        what, ExecContextName(CurrentExecContext()));
  }
}

void ContractAbort(const char* fmt, ...) {
  std::fprintf(stderr, "ikdp contract violation: ");
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace ikdp
