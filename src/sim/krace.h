// krace: exact happens-before race detection for the simulated kernel's
// logically-concurrent state, plus deterministic schedule perturbation.
//
// The simulation is single-threaded and deterministic, yet the kernel it
// models is genuinely concurrent: b_iodone handlers run at interrupt level,
// the splice write side runs at softclock off the callout list, and the
// syscall path runs in process context, all mutating shared state (buffer
// flags, splice flow-control counters, ring queues, the CPU ledger).  The
// only nondeterminism the real machine would add is the ORDER of events that
// are simultaneous: the event queue breaks same-timestamp ties by insertion
// sequence, and nothing guarantees the modelled kernel is correct under any
// other legal tie-break.  krace makes that checkable two ways:
//
//  * HAPPENS-BEFORE DETECTION — every executed event is a node in the
//    causality graph.  Events at strictly increasing simulated times are
//    ordered by the clock (the discrete-event engine never reorders across
//    distinct timestamps), so the full vector-clock machinery degenerates to
//    an exact same-timestamp check: two events at one timestamp are ordered
//    iff a chain of schedule edges (event A, while running, scheduled event
//    B) or declared ordering-channel edges connects them.  Instrumented
//    field accesses (the IKDP_KRACE_* probes) from two same-timestamp
//    events with no such chain, where at least one access is a plain write,
//    are a race: a legal tie-break permutation could reverse them and the
//    simulation's result would depend on an ordering the kernel never
//    promised.  This is sound and complete over the instrumented accesses
//    for the executed schedule (no lockset-style false positives).
//
//  * SCHEDULE PERTURBATION — SetPerturbSeed(s) with s != 0 re-keys the
//    event queue's same-timestamp tie-break by a seeded hash instead of
//    insertion order.  Every permutation so produced is a legal schedule
//    (an event scheduled by a same-timestamp event still runs after its
//    creator, because the creator had already been popped).  Running an
//    experiment under several seeds and requiring byte-identical output
//    proves the result independent of tie-break order; any divergence is a
//    reported ordering bug, not a flake.  bench/perturb_tables does exactly
//    this for the paper's Tables 1 and 2.
//
// Access kinds:
//   read     — IKDP_KRACE_READ: races with concurrent writes.
//   write    — IKDP_KRACE_WRITE: races with any concurrent access.
//   commute  — IKDP_KRACE_COMMUTE: an order-insensitive update (counter
//              increment, max-tracking, set-insert keyed by a unique id).
//              Two commuting updates do not race with each other; a commute
//              against a plain read or write still does.  This is the moral
//              equivalent of a relaxed atomic counter and keeps honest
//              statistics (splices_completed and friends) from drowning the
//              report in order-independent noise.
//
// Ordering channels (the dynamic half of IKDP_ORDERED_BY, src/kern/ctx.h):
// a producer/consumer pair serialized by something coarser than a schedule
// edge — the callout list, the ring reaper — declares it by calling
// ChannelRelease(chan) after publishing and ChannelAcquire(chan) before
// consuming.  The edge is event-granular — the whole releasing event is
// ordered before the acquiring event — and composes transitively with
// schedule edges: the releaser's own same-timestamp ancestors are carried
// across, so X -schedule-> A -channel-> B makes X happen-before B.
//
// The detector is host-side only: it never advances simulated time and
// charges no simulated CPU.  Each Simulator owns one in its SimState
// (src/sim/sim_state.h, which defines Krace() and the probes), so records
// are per run; the mode comes from IKDP_KRACE ("abort", "1", "collect",
// anything else/unset = off) or SetMode().

#ifndef SRC_SIM_KRACE_H_
#define SRC_SIM_KRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace ikdp {

// Redeclaration of src/sim/event_queue.h's alias (identical, so the two
// headers stay independent: krace.h is included from buf.h and friends).
using EventId = uint64_t;

enum class KraceAccess : uint8_t { kRead = 0, kWrite, kCommute };

class KraceDetector {
 public:
  enum class Mode : uint8_t {
    kOff = 0,   // probes compile to a flag test
    kCollect,   // record races; tests assert on races()
    kAbort,     // first race calls ContractAbort with both sites
  };

  KraceDetector(Mode mode, uint64_t perturb_seed) : mode_(mode), seed_(perturb_seed) {}

  KraceDetector(const KraceDetector&) = delete;
  KraceDetector& operator=(const KraceDetector&) = delete;

  Mode mode() const { return mode_; }
  bool enabled() const { return mode_ != Mode::kOff; }
  void SetMode(Mode mode) { mode_ = mode; }

  // --- race reports ---

  struct Site {
    EventId event = 0;
    const char* ctx = "";  // ExecContextName at the access
    const char* file = "";
    int line = 0;
    KraceAccess kind = KraceAccess::kRead;
  };

  struct Race {
    const void* obj = nullptr;
    const char* field = "";
    SimTime time = 0;
    Site prior;    // executed first under the current tie-break
    Site current;  // executed second; no happens-before chain to prior
    std::string Describe() const;
  };

  const std::vector<Race>& races() const { return races_; }

  // Adds a finished run's races to this detector's report.
  void Fold(const KraceDetector& run);

  // --- causality hooks (wired by Simulator; event-engine use only) ---

  void OnSchedule(EventId child, SimTime when);
  void OnEventBegin(EventId id, SimTime when);
  void OnEventEnd();
  void OnCancel(EventId id);

  // --- ordering channels ---

  void ChannelRelease(const void* chan);
  void ChannelAcquire(const void* chan);

  // --- the access probe (use the IKDP_KRACE_* macros) ---

  void OnAccess(const void* obj, const char* field, KraceAccess kind,
                const char* file, int line);

  // --- schedule perturbation ---

  // 0 disables perturbation (tie-break = insertion order, the historical
  // behaviour).  Takes effect for Simulators constructed afterwards: each
  // copies the seed into its event queue, and each is a fresh run, so a
  // seed sweep never compares one schedule's events against another's.
  void SetPerturbSeed(uint64_t seed) { seed_ = seed; }
  uint64_t perturb_seed() const { return seed_; }

  // The same-timestamp tie-break key for the event with schedule sequence
  // number `seq` (EventSeq of its id) under `seed`.
  static uint64_t TieKey(uint64_t seed, uint64_t seq);

 private:
  struct FieldKey {
    const void* obj;
    const char* field;
  };
  struct FieldKeyHash {
    size_t operator()(const FieldKey& k) const;
  };
  struct FieldKeyEq {
    bool operator()(const FieldKey& a, const FieldKey& b) const;
  };

  struct AccessRec {
    EventId event = 0;
    KraceAccess kind = KraceAccess::kRead;
    const char* ctx = "";
    const char* file = "";
    int line = 0;
  };

  // Accesses to one field at the CURRENT timestamp; slots from earlier
  // timestamps are stale (cross-time accesses are always ordered) and are
  // recycled in place.
  struct FieldSlot {
    SimTime time = -1;
    std::vector<AccessRec> acc;
  };

  struct ChannelState {
    SimTime time = -1;
    std::vector<EventId> releasers;  // same-timestamp releasing events
  };

  void ReportRace(const FieldKey& key, const AccessRec& prior, const AccessRec& cur);

  Mode mode_;
  uint64_t seed_;

  // Currently executing event.
  bool in_event_ = false;
  EventId cur_ = 0;
  SimTime now_ = -1;
  // Same-timestamp happens-before ancestors of the current event (events at
  // now_ whose schedule-edge chain leads to cur_), sorted and unique.
  std::vector<EventId> cur_anc_;
  // Ancestor sets for same-timestamp children, appended in schedule order
  // (so `child` ascends) and emptied in place once begun or cancelled; the
  // entries keep their storage across timestamps.
  struct PendingAnc {
    EventId child = 0;
    std::vector<EventId> anc;
  };
  std::vector<PendingAnc> pending_anc_;
  size_t n_pending_ = 0;  // live prefix of pending_anc_

  // The live pending entry for `child`, or nullptr.
  PendingAnc* FindPending(EventId child);

  std::unordered_map<const void*, ChannelState> channels_;
  std::unordered_map<FieldKey, FieldSlot, FieldKeyHash, FieldKeyEq> table_;
  std::vector<Race> races_;
};

}  // namespace ikdp

#endif  // SRC_SIM_KRACE_H_
