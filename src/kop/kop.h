// kop: verifiable in-kernel splice operators (the BPF-for-storage shape).
//
// The source paper moves data MOVEMENT into the kernel; its descendant "BPF
// for storage: an exokernel-inspired approach" (PAPERS.md) argues for moving
// computation over that data into the kernel path too.  A kop program is a
// tiny linear pipeline of typed stages that executes over each splice chunk
// *inside* the data path — at interrupt level on the synchronous read-
// completion path, at softclock level from the callout-deferred write handler
// and the ring reaper — so a stream can be checksummed, filtered, transformed
// or routed without ever surfacing to a user process.
//
// Safety comes from the same split the rest of this kernel uses:
//
//  * STATICALLY — KopVerify() runs at kop_load(2) time and rejects programs
//    that could misbehave in interrupt context: unbounded loops (repeat
//    counts outside [1, kKopMaxRepeat]), out-of-chunk access (stage windows
//    beyond the declared chunk size), and sink sets inconsistent with the
//    pipeline (a route stage that is not last, or whose fan-out does not
//    match the attached sink count).  Rule classes mirror tools/kcheck:
//    each violation carries a stable rule name, and KopSeededViolations()
//    provides one seeded fixture per rule class for the self-tests.
//
//  * DYNAMICALLY — the interpreter re-checks every stage window against the
//    ACTUAL chunk length (the last chunk of a file is short) and rejects the
//    chunk with kErrKopReject instead of reading out of bounds.  A rejection
//    rides the PR6 fault machinery: sticky first-errno on the descriptor,
//    SpliceError on both fds, LINKED-sibling cancellation on rings.
//
// CPU accounting: every stage charges per byte at the context that runs it,
// into dedicated ChargeKey buckets (kop.interrupt / kop.softclock /
// kop.process) so CheckAttributionClosure still closes exactly and the
// Table-1 availability math shows precisely what in-kernel computation
// costs.  Execution itself never blocks, never sleeps, never draws RNG.

#ifndef SRC_KOP_KOP_H_
#define SRC_KOP_KOP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/costs.h"
#include "src/kern/ctx.h"
#include "src/sim/time.h"
#include "src/splice/endpoint.h"

namespace ikdp {

// Errno for "operator rejected this chunk" (EBADMSG shape).  Distinct from
// kErrIo/kErrInval so tests and CQE consumers can tell an operator rejection
// from a device fault.
inline constexpr int kErrKopReject = 74;

// Program-shape limits enforced by the verifier.
inline constexpr int kKopMaxStages = 8;
inline constexpr int kKopMaxRepeat = 4;
inline constexpr int kKopMaxSinks = 4;

enum class KopStageKind : uint8_t {
  kChecksum = 0,  // fold the window into the running checksum accumulator
  kFilter,        // keep or drop the chunk on a byte comparison
  kTransform,     // xor the window with `arg` (clones the data area first)
  kRoute,         // pick sink = data[off] % n_sinks; must be the last stage
};

enum class KopFilterMode : uint8_t {
  kKeepIfEq = 0,  // keep the chunk iff data[off] == arg, else drop
  kKeepIfNe,      // keep the chunk iff data[off] != arg, else drop
  kAbortIfEq,     // reject the whole stream iff data[off] == arg
};

struct KopStage {
  KopStageKind kind = KopStageKind::kChecksum;
  // Byte window [off, off+len) within the chunk; len == -1 means "to the end
  // of the chunk".  Filters and routes examine data[off] only but still
  // declare their window for the verifier.
  int64_t off = 0;
  int64_t len = -1;
  // Stage argument: the filter compare byte, the transform xor key.
  uint8_t arg = 0;
  KopFilterMode filter_mode = KopFilterMode::kKeepIfEq;
  // kRoute: number of sinks the program fans out to (must match the
  // attachment's sink count).  1 everywhere else.
  int n_sinks = 1;
  // Bounded repeat count (checksum passes); the verifier rejects anything
  // outside [1, kKopMaxRepeat] — this is the "no unbounded loops" rule.
  int repeat = 1;
};

struct KopProgram {
  std::vector<KopStage> stages;
  // Set by KopVerify on success; every bind site (kop_attach, the engine,
  // ResolveSqe) enforces verified==true — the reject-unverified-program rule.
  bool verified = false;

  // Fan-out of the final route stage, or 1 for a linear program.
  int SinkCount() const {
    if (!stages.empty() && stages.back().kind == KopStageKind::kRoute)
      return stages.back().n_sinks;
    return 1;
  }
  // True when some stage can drop chunks (filter) — bind sites use this to
  // refuse file sinks, whose byte offsets would be corrupted by holes.
  bool CanDrop() const {
    for (const KopStage& s : stages)
      if (s.kind == KopStageKind::kFilter) return true;
    return false;
  }
};

// One verifier violation.  `rule` is a stable rule-class name (see
// docs/kop.md): empty-program, too-many-stages, unbounded-loop,
// out-of-chunk, route-not-last, sink-mismatch.
struct KopFinding {
  std::string rule;
  int stage = -1;  // offending stage index, -1 for whole-program rules
  std::string detail;
};

// Statically verifies `prog` against chunks of at most `chunk_bytes`.
// Returns all findings (empty == accepted) and, on acceptance, the caller
// marks the program verified.  Pure host-side computation: no simulated
// time, no RNG.
std::vector<KopFinding> KopVerify(const KopProgram& prog, int64_t chunk_bytes);

// Seeded-violation fixtures, one per rule class, mirroring
// tools/kcheck/testdata: each pairs a deliberately-broken program with the
// rule KopVerify must flag it under.  The kop self-tests iterate this table.
struct KopSeededViolation {
  const char* rule;
  KopProgram program;
};
std::vector<KopSeededViolation> KopSeededViolations(int64_t chunk_bytes);

// --- interpreter ---

// Per-attachment run state.  Lives in the splice descriptor / ring op and is
// touched from whatever context executes chunks there (interrupt on sync
// read completion, softclock from the callout write handler and the reaper),
// the same logically-concurrent sharing the descriptor's own counters have.
struct KopRunState {
  uint64_t checksum IKDP_GUARDED_BY(any) = 0;    // running FNV-style fold
  int64_t chunks_in IKDP_GUARDED_BY(any) = 0;
  int64_t chunks_dropped IKDP_GUARDED_BY(any) = 0;
  int64_t chunks_rejected IKDP_GUARDED_BY(any) = 0;
  int64_t bytes_in IKDP_GUARDED_BY(any) = 0;
  int64_t bytes_out IKDP_GUARDED_BY(any) = 0;
};

// Outcome of running a program over one chunk.
struct KopOutcome {
  enum class Kind : uint8_t {
    kPass = 0,  // chunk continues to sinks_[route]
    kDrop,      // chunk consumed in-kernel (filter), stream continues
    kReject,    // stream aborts with `error` (kErrKopReject)
  };
  Kind kind = Kind::kPass;
  int route = 0;  // sink index for kPass
  int error = 0;  // errno for kReject
  SimDuration cost = 0;  // total CPU to charge at the executing context
};

// Executes `prog` over `chunk` in the calling context.  Never blocks; the
// caller charges `outcome.cost` via the bucket for its context.  kTransform
// clones the data area before mutating (chunk.data aliases the buffer
// cache), charging the clone bcopy like the zero_copy=false ablation does.
// The verifier guarantee is re-checked against chunk.nbytes: a window beyond
// the actual payload rejects the chunk (out-of-chunk access at runtime).
IKDP_CTX_ANY KopOutcome KopExecChunk(const KopProgram& prog, SpliceChunk& chunk,
                                     KopRunState* st, const CostConfig& costs);

}  // namespace ikdp

#endif  // SRC_KOP_KOP_H_
