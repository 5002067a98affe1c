// The CPU attribution ledger: every charge CpuSystem books, keyed by
// (bucket, subsystem, span).
//
// A charge's subsystem is a static string (a kspan cursor tag such as "net"
// or "process"), compared by content: two literals with equal text are one
// subsystem.  The ledger interns each text to a small id, looking the
// pointer up first and comparing content only on a pointer miss, so the hot
// path never calls strcmp.  Span-less charges (every charge of a run with no
// kspan collector) go to a dense subsystem x bucket array; span-tagged ones
// go to a hash keyed by the packed (span, subsystem id, bucket).  Adding is
// O(1) with no allocation once a key has been seen.
//
// ToMap() renders the ledger as the ordered (bucket, subsystem text, span)
// map the span renderers and breakdowns consume.  It holds every key ever
// charged, including keys whose charges net to zero (a context-switch
// refund), exactly as a map updated charge by charge would.

#ifndef SRC_KERN_CHARGE_LEDGER_H_
#define SRC_KERN_CHARGE_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/sim/kspan.h"
#include "src/sim/time.h"

namespace ikdp {

// The ledger bucket a charge landed in (see CpuSystem::ChargeBucket).
enum class ChargeBucket : uint8_t {
  kProcess = 0,
  kSwitch,
  kInterrupt,
  kSoftclock,
  kKopProcess,
  kKopInterrupt,
  kKopSoftclock,
};
inline constexpr int kNumChargeBuckets = 7;

struct ChargeKey {
  ChargeBucket bucket = ChargeBucket::kProcess;
  const char* subsystem = "";  // static storage, compared by content
  SpanId span = kNoSpan;
  bool operator<(const ChargeKey& o) const;
};

class ChargeLedger {
 public:
  // Adds `t` (negative for a refund) to the key's entry.  t == 0 is a no-op
  // and creates no entry.  `subsystem` must outlive the ledger.
  void Add(ChargeBucket bucket, const char* subsystem, SpanId span, SimDuration t);

  // The sum of every entry, per bucket.
  std::array<SimDuration, kNumChargeBuckets> BucketSums() const;

  // Every entry ever charged, in (bucket, subsystem text, span) order.
  std::map<ChargeKey, SimDuration> ToMap() const;

 private:
  // Span ids are packed above the subsystem id and bucket in one 64-bit key.
  static constexpr int kBucketBits = 3;
  static constexpr int kSubsystemBits = 13;

  struct Alias {
    const char* text;
    uint32_t id;
  };
  // One row per subsystem id: its span-less sums and which buckets were
  // ever charged (bit b set = the (b, subsystem, kNoSpan) entry exists).
  struct Row {
    std::array<SimDuration, kNumChargeBuckets> t = {};
    uint8_t charged = 0;
  };

  uint32_t Intern(const char* subsystem);

  std::vector<Alias> aliases_;     // every subsystem pointer seen -> id
  std::vector<const char*> texts_;  // id -> the first pointer seen for it
  std::vector<Row> spanless_;       // by subsystem id
  std::unordered_map<uint64_t, SimDuration> spanned_;
};

}  // namespace ikdp

#endif  // SRC_KERN_CHARGE_LEDGER_H_
