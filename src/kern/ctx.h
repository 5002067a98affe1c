// Execution-context discipline: annotations + runtime enforcement.
//
// The paper's design hinges on rules the compiler never sees: b_iodone
// handlers run at interrupt level and must not block, the splice write side
// runs from the callout list at softclock level, and only process context may
// sleep.  This header makes those rules machine-checkable twice over:
//
//  * STATICALLY — the IKDP_CTX_* macros annotate function declarations with
//    the most restrictive context the function must tolerate.  The macro
//    expands to a no-op (on clang, an `annotate` attribute carrying the
//    registry string "ikdp_ctx:<context>"); tools/kcheck reads the macros
//    straight from the source, builds the call graph, and rejects blocking
//    primitives reachable from interrupt/softclock-annotated entry points,
//    un-dominated ChargeInterrupt() calls, and buffer flag-discipline
//    violations.  See docs/kcheck.md for the annotation reference.
//
//  * DYNAMICALLY — ContextGuard tracks the context the simulated kernel is
//    executing in (process / interrupt / softclock / host).  The scheduler
//    and callout table push guards around every dispatch, and the blocking
//    primitives call AssertCanBlock(), so any rule kcheck enforces statically
//    also aborts loudly at runtime if a dynamic path slips past the static
//    call graph (e.g. through a stored callback the analyzer cannot follow).
//
// Annotation semantics (the contract, not the observed behaviour):
//
//   IKDP_CTX_PROCESS    may sleep; must only be entered from process context
//                       (a running process coroutine) or host code.
//   IKDP_CTX_INTERRUPT  entered at interrupt level (device completion);
//                       must never reach a blocking primitive.
//   IKDP_CTX_SOFTCLOCK  entered from the callout list at softclock level;
//                       must never reach a blocking primitive.
//   IKDP_CTX_ANY        callable from every context, hence held to the
//                       interrupt rules: must never reach a blocking
//                       primitive.  Also used as an explicit waiver marker —
//                       see docs/kcheck.md for waiver comments.
//
// A function that sometimes runs synchronously in process context (the RAM
// disk completes I/O inside Strategy) and sometimes at interrupt level keeps
// the *stricter* annotation: IKDP_CTX_INTERRUPT / IKDP_CTX_ANY mean "must be
// safe at interrupt level", not "only ever runs there".

#ifndef SRC_KERN_CTX_H_
#define SRC_KERN_CTX_H_

#include <cstdint>

// The annotation macros expand to a no-op attribute carrying the registry
// string.  GCC would warn (-Werror) on the unknown `annotate` attribute, so
// the attribute itself is clang-only; kcheck parses the macro tokens from
// source and never needs the compiled attribute.
#if defined(__clang__)
#define IKDP_CTX_ATTR(ctx) __attribute__((annotate("ikdp_ctx:" ctx)))
#else
#define IKDP_CTX_ATTR(ctx)
#endif

#define IKDP_CTX_PROCESS IKDP_CTX_ATTR("process")
#define IKDP_CTX_INTERRUPT IKDP_CTX_ATTR("interrupt")
#define IKDP_CTX_SOFTCLOCK IKDP_CTX_ATTR("softclock")
#define IKDP_CTX_ANY IKDP_CTX_ATTR("any")

// --- TSA BRIDGE: clang thread-safety (the second, independent checker) ---
//
// Compiled with -DIKDP_CLANG_TSA under clang, the klock annotations below
// stop being inert registry strings and become real -Wthread-safety
// attributes, so the SAME source lines are checked twice by unrelated
// engines: tools/kcheck's path-sensitive walker, and clang's thread-safety
// analysis.  The mapping:
//
//   IKDP_GUARDED_BY(lock:cache) -> __attribute__((guarded_by(lock_)))
//   IKDP_ACQUIRES(cache)        -> __attribute__((acquire_capability(lock_)))
//   IKDP_RELEASES(cache)        -> __attribute__((release_capability(lock_)))
//   IKDP_REQUIRES(cache)        -> __attribute__((requires_capability(lock_)))
//   IKDP_EXCLUDES(cache)        -> __attribute__((locks_excluded(lock_)))
//
// The annotations name LOCKS ("cache"); the attributes need MEMBERS
// ("lock_").  The translation is a token paste: `_ikdp_tsa_cap` is glued
// onto the payload's last token, and every registered lock name defines
// that object-like macro as `, <member>` NEXT TO its lock declaration
// (e.g. `#define cache_ikdp_tsa_cap , lock_` beside BufferCache::lock_).
// The re-expanded comma splits the argument list at the next macro layer,
// where an arity-counting dispatch selects the attribute-emitting branch
// with the member name.  Unregistered payloads — the context sets
// (process, interrupt, ...) that IKDP_GUARDED_BY also accepts — stay one
// token and select the empty branch, so the krace vocabulary is untouched.
// GCC and plain clang builds never see any of this: the machinery exists
// only under the gate.
#if defined(IKDP_CLANG_TSA) && defined(__clang__)
#define IKDP_TSA_ENABLED 1
#else
#define IKDP_TSA_ENABLED 0
#endif

#if IKDP_TSA_ENABLED
// Paste `_ikdp_tsa_cap` onto the LAST payload token (`lock:cache` ->
// `lock : cache_ikdp_tsa_cap`); the rescan then expands the registration.
// Extra arguments (multi-context guard sets) are dropped — they can never
// be lock payloads.
#define IKDP_TSA_PASTE(...) IKDP_TSA_PASTE_I(__VA_ARGS__)
#define IKDP_TSA_PASTE_I(x, ...) x##_ikdp_tsa_cap
// Guard dispatch: a registered `lock:<name>` payload re-split into two
// arguments picks the third slot (the emitter); a context payload stays one
// argument and picks the fourth (empty).
#define IKDP_TSA_GB(...) \
  IKDP_TSA_GB_PICK(__VA_ARGS__, IKDP_TSA_GB_LOCK, IKDP_TSA_GB_CTX, )(__VA_ARGS__)
#define IKDP_TSA_GB_PICK(a, b, c, ...) c
#define IKDP_TSA_GB_LOCK(ignored, member) __attribute__((guarded_by(member)))
#define IKDP_TSA_GB_CTX(...)
// Function-contract payloads are bare lock names, so the paste result is
// exactly `, <member>`: the member is the (empty-preceded) second argument.
// An unregistered name leaves a one-token payload and fails this macro's
// arity check loudly — under TSA every named lock must be registered.
#define IKDP_TSA_FN(attr, ...) IKDP_TSA_FN_I(attr, __VA_ARGS__)
#define IKDP_TSA_FN_I(attr, ignored, member) __attribute__((attr(member)))
// Capability vocabulary for the lock classes themselves (src/kern/lock.h).
#define IKDP_TSA_CAPABILITY(kind) __attribute__((capability(kind)))
#define IKDP_TSA_SCOPED_CAPABILITY __attribute__((scoped_lockable))
#define IKDP_TSA_ACQUIRE(...) __attribute__((acquire_capability(__VA_ARGS__)))
#define IKDP_TSA_RELEASE(...) __attribute__((release_capability(__VA_ARGS__)))
#define IKDP_TSA_NO_ANALYSIS __attribute__((no_thread_safety_analysis))
#else
#define IKDP_TSA_CAPABILITY(kind)
#define IKDP_TSA_SCOPED_CAPABILITY
#define IKDP_TSA_ACQUIRE(...)
#define IKDP_TSA_RELEASE(...)
#define IKDP_TSA_NO_ANALYSIS
#endif

// --- data-side annotations (the krace vocabulary; see docs/krace.md) ---
//
// Where IKDP_CTX_* states which context may CALL a function, these state
// which context may TOUCH a member.  Both are read by tools/kcheck straight
// from the source; on clang they also expand to `annotate` attributes so
// the registry strings survive into the AST.
//
//   IKDP_GUARDED_BY(ctx, ...)  The member may only be accessed from the
//                              listed contexts (process / interrupt /
//                              softclock, or `any` as shorthand for all
//                              three).  kcheck's guard-violation rule
//                              rejects accesses from a function whose
//                              IKDP_CTX_* annotation resolves outside the
//                              set.  Trails the declarator:
//                                int pending_ IKDP_GUARDED_BY(interrupt) = 0;
//
//   IKDP_ORDERED_BY(channel)   The member is touched from several contexts
//                              but serialized by a named ordering channel
//                              (`callout`, `biodone`, `reaper`, `diskq`)
//                              rather than a context restriction.  kcheck
//                              verifies the channel name is a known one;
//                              the dynamic side (src/sim/krace.h) checks the
//                              serialization actually holds via
//                              ChannelRelease/ChannelAcquire edges.
#if IKDP_TSA_ENABLED
#define IKDP_GUARDED_BY(...) IKDP_TSA_GB(IKDP_TSA_PASTE(__VA_ARGS__))
#define IKDP_ORDERED_BY(channel)
#elif defined(__clang__)
#define IKDP_GUARDED_BY(...) __attribute__((annotate("ikdp_guard:" #__VA_ARGS__)))
#define IKDP_ORDERED_BY(channel) __attribute__((annotate("ikdp_order:" #channel)))
#else
#define IKDP_GUARDED_BY(...)
#define IKDP_ORDERED_BY(channel)
#endif

// --- lock-side annotations (the klock vocabulary; see docs/klock.md) ---
//
// IKDP_GUARDED_BY also accepts a lock payload: `IKDP_GUARDED_BY(lock:cache)`
// means the member may only be touched while the lock named `cache` is held
// (kcheck's lock-guard-violation rule), replacing a pure context set where a
// real lock now protects the structure.  The remaining macros annotate
// functions and lock members:
//
//   IKDP_ACQUIRES(l)       The function returns with lock `l` held (its
//                          caller is responsible for the release).  Leads
//                          the declaration, like IKDP_CTX_*.
//   IKDP_RELEASES(l)       The function requires `l` held on entry and
//                          releases it before returning.
//   IKDP_EXCLUDES(l)       The function must NOT be entered with `l` held
//                          (it acquires `l` itself, or sleeps).  Calling it
//                          while holding `l` is a double-acquire.
//   IKDP_REQUIRES(l)       The function must be entered with lock `l` held
//                          and returns with it still held (the `// lock-
//                          held` helper contract: FreelistPop, Disksort,
//                          UnfinishedLocked, ...).  kcheck seeds the
//                          helper's entry-held set from it — the caller-
//                          intersection fixpoint still proves the same set,
//                          so the macro is documentation the tools verify
//                          from both sides; under IKDP_CLANG_TSA it is the
//                          attribute that lets clang check helper bodies.
//   IKDP_LOCK_RANK(l, n)   Trails a SpinLock/SleepLock member declarator,
//                          declaring its name and rank in the lock
//                          hierarchy (lower = outer; acquisitions must
//                          strictly increase in rank).  The same name/rank
//                          pair is passed to the constructor for the
//                          dynamic side (src/sim/lockdep.h):
//                            SpinLock lock_ IKDP_LOCK_RANK(cache, 40) =
//                                SpinLock("cache", 40);
//   IKDP_ACQUIRED_AFTER(m) Trails a lock member declarator, after its
//                          IKDP_LOCK_RANK: this lock is acquired while the
//                          sibling lock MEMBER `m` is already held.  The
//                          payload is a member name (not a lock name) so
//                          clang's `acquired_after` gets a valid expression;
//                          kcheck resolves the member back to its lock and
//                          rejects declarations whose rank contradicts the
//                          claimed order (a lock-order-cycle finding).
#if IKDP_TSA_ENABLED
#define IKDP_ACQUIRES(l) IKDP_TSA_FN(acquire_capability, IKDP_TSA_PASTE(l))
#define IKDP_RELEASES(l) IKDP_TSA_FN(release_capability, IKDP_TSA_PASTE(l))
#define IKDP_EXCLUDES(l) IKDP_TSA_FN(locks_excluded, IKDP_TSA_PASTE(l))
#define IKDP_REQUIRES(l) IKDP_TSA_FN(requires_capability, IKDP_TSA_PASTE(l))
#define IKDP_LOCK_RANK(l, n) __attribute__((annotate("ikdp_lock_rank:" #l "," #n)))
#define IKDP_ACQUIRED_AFTER(m) __attribute__((acquired_after(m)))
#elif defined(__clang__)
#define IKDP_ACQUIRES(l) __attribute__((annotate("ikdp_acquires:" #l)))
#define IKDP_RELEASES(l) __attribute__((annotate("ikdp_releases:" #l)))
#define IKDP_EXCLUDES(l) __attribute__((annotate("ikdp_excludes:" #l)))
#define IKDP_REQUIRES(l) __attribute__((annotate("ikdp_requires:" #l)))
#define IKDP_LOCK_RANK(l, n) __attribute__((annotate("ikdp_lock_rank:" #l "," #n)))
#define IKDP_ACQUIRED_AFTER(m) __attribute__((annotate("ikdp_acquired_after:" #m)))
#else
#define IKDP_ACQUIRES(l)
#define IKDP_RELEASES(l)
#define IKDP_EXCLUDES(l)
#define IKDP_REQUIRES(l)
#define IKDP_LOCK_RANK(l, n)
#define IKDP_ACQUIRED_AFTER(m)
#endif

// --- error-path annotations (the kpath vocabulary; see docs/kcheck.md) ---
//
//   IKDP_STICKY_ERRNO      Trails an errno-holding member declarator: the
//                          member records the FIRST failure of an operation
//                          and must never be overwritten once nonzero
//                          (docs/faults.md "sticky first error").  Every
//                          nonzero store must be dominated by a zero check:
//                            if (error_ == 0) error_ = out.error;
//                          kcheck's errno-clobber rule walks every CFG path
//                          and rejects stores where the member may already
//                          hold an error.
#if defined(__clang__)
#define IKDP_STICKY_ERRNO __attribute__((annotate("ikdp_sticky_errno")))
#else
#define IKDP_STICKY_ERRNO
#endif

namespace ikdp {

enum class ExecContext : uint8_t {
  kHost = 0,    // outside the simulated kernel: setup, tests, harnesses
  kProcess,     // a process coroutine is executing
  kInterrupt,   // inside a CpuSystem::RunInterrupt body
  kSoftclock,   // dispatching callout-list entries (softclock tick)
};

const char* ExecContextName(ExecContext c);

// The context currently executing: the current SimState's (one simulated
// CPU per simulation, src/sim/sim_state.h).
ExecContext CurrentExecContext();

// True at interrupt or softclock level, where blocking is forbidden.
bool AtInterruptLevel();

// RAII context marker.  Guards nest (an interrupt stealing cycles during a
// process burst, a softclock entry body raising to interrupt level); the
// destructor restores the previous context.
class ContextGuard {
 public:
  explicit ContextGuard(ExecContext ctx);
  ~ContextGuard();

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  ExecContext prev_;
};

// Aborts with a clear diagnostic unless the current context may block.
// Called by every blocking primitive (CpuSystem::Sleep / CpuSystem::Use and
// everything built on them); `what` names the primitive for the message.
void AssertCanBlock(const char* what);

// Aborts with a clear diagnostic unless running at interrupt level.  Used by
// ChargeInterrupt(): interrupt CPU accounting outside an interrupt would
// corrupt the ledger silently.
void AssertInterruptLevel(const char* what);

// printf-style abort shared by the context and buffer-state checkers: prints
// "ikdp contract violation: ..." to stderr and calls std::abort(), so the
// failure is loud in every build type (asserts stay on in this tree, but the
// checkers do not even rely on that).
[[noreturn]] void ContractAbort(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ikdp

#endif  // SRC_KERN_CTX_H_
