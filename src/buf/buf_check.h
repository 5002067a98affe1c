// Runtime enforcement of the 4.2BSD buffer flag discipline.
//
// Every Buf walks a strict state machine ([LMK89] ch. 7): a buffer is
// acquired busy (getblk), does I/O while busy, and is released exactly once
// back to the free list.  The transitions the cache relies on:
//
//   !BUSY --getblk/bread/transient-alloc--> BUSY        (OnAcquire)
//   BUSY  --strategy submit-------------->  BUSY        (OnIoSubmit)
//   BUSY  --biodone---------------------->  BUSY|DONE   (OnIoDone)
//   BUSY  --bdwrite---------------------->  BUSY|DELWRI (OnDelwri)
//   BUSY  --brelse----------------------->  !BUSY       (OnRelease)
//
// Violations — releasing a buffer nobody owns, double-brelse, submitting or
// completing I/O on a non-busy buffer, marking a non-busy buffer dirty —
// would silently corrupt the cache's intrusive lists and the experiments'
// results.  Each hook aborts via ContractAbort with the buffer's identity
// and flag word, so a violation fails loudly in every build type.
//
// These are the same rules tools/kcheck enforces statically at call sites
// (rule class "busy-flag misuse"); the hooks catch dynamic paths the static
// call graph cannot see (completion callbacks, virtual endpoints).

#ifndef SRC_BUF_BUF_CHECK_H_
#define SRC_BUF_BUF_CHECK_H_

#include "src/buf/buf.h"

namespace ikdp {

class BufStateChecker {
 public:
  // A buffer is being granted to an owner: it must not already be busy.
  static void OnAcquire(const Buf& b);

  // A busy buffer is being released (brelse).  Aborts on the classic
  // double-brelse (buffer no longer busy) and on transient headers, which
  // are freed, never released.
  static void OnRelease(const Buf& b);

  // I/O is being submitted to the device: the buffer must be busy (owned),
  // or the strategy routine could race a concurrent reuse.
  static void OnIoSubmit(const Buf& b);

  // Device completion (biodone): the buffer must still be busy.
  static void OnIoDone(const Buf& b);

  // The buffer is being marked for delayed write: only its owner (busy
  // holder) may dirty it.
  static void OnDelwri(const Buf& b);

 private:
  [[noreturn]] static void Fail(const char* rule, const Buf& b, const char* detail);
};

}  // namespace ikdp

#endif  // SRC_BUF_BUF_CHECK_H_
