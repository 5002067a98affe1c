// The one pass that pairs TraceLog begin/end records into intervals.
//
// TelemetryCollector and SpanTraceBuilder each hold an IntervalPairer and
// decide only what a closed interval becomes.  kIntervalPairs is the list
// of pairs and their keys.  A repeated begin replaces the open one (a
// retried splice read re-records its index); an end with no open begin is
// ignored.
//
// A splice read can retire without being written, so it closes one of
// three ways:
//   * kSpliceChunk: the chunk was written.  Only this close measures a
//     read-to-write latency;
//   * kKopDrop: an in-kernel operator consumed the chunk;
//   * its stream's kSpliceDone: the stream finished with the read still
//     open (a read error, the end-of-stream marker, a reject, a cancelled
//     drain).  Every read open for that serial closes, and consumers treat
//     it as errored.
//
// Host-side bookkeeping only: pairing never touches simulated state.

#ifndef SRC_METRICS_INTERVALS_H_
#define SRC_METRICS_INTERVALS_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "src/sim/inline_fn.h"
#include "src/sim/trace.h"

namespace ikdp {

// Which record fields key a pair: a alone, a plus the tag, or a and b.
enum class PairKey { kA, kATag, kAB };

struct IntervalPair {
  TraceKind begin;
  TraceKind end;
  PairKey key;
};

inline constexpr IntervalPair kIntervalPairs[] = {
    // pid: syscalls do not nest
    {TraceKind::kSyscallEnter, TraceKind::kSyscallExit, PairKey::kA},
    // pid: run-queue wait
    {TraceKind::kRunnable, TraceKind::kDispatch, PairKey::kA},
    // (transfer serial, device tag)
    {TraceKind::kDiskDispatch, TraceKind::kDiskComplete, PairKey::kATag},
    // (descriptor serial, chunk index), closed by a write or an operator drop
    {TraceKind::kSpliceRead, TraceKind::kSpliceChunk, PairKey::kAB},
    {TraceKind::kSpliceRead, TraceKind::kKopDrop, PairKey::kAB},
    // (ring id, cookie): a ring's in-flight cookies must be unique
    {TraceKind::kRingOpSubmit, TraceKind::kRingOpComplete, PairKey::kAB},
    // datagram serial: interface occupancy of one datagram
    {TraceKind::kUdpSend, TraceKind::kUdpSent, PairKey::kA},
};

class IntervalPairer {
 public:
  // Receives each closed interval: its begin record and the record that
  // closed it (end.kind tells a consumer how it closed).
  using Sink = InlineFn<void(const TraceRecord& begin, const TraceRecord& end)>;

  // Feeds one record, handing every interval it closes to `sink`; kinds
  // that begin or end no pair are ignored.
  void Observe(const TraceRecord& rec, const Sink& sink);

  // Begin records whose end has not arrived yet (unfinished intervals).
  size_t pending() const { return open_.size(); }

 private:
  // The pair's begin kind plus the fields it is keyed by; the rest stay 0.
  struct Key {
    TraceKind kind;
    int64_t a;
    int64_t b;
    std::string tag;
    auto operator<=>(const Key&) const = default;
  };
  static Key KeyOf(const IntervalPair& pair, const TraceRecord& rec);

  std::map<Key, TraceRecord> open_;
};

}  // namespace ikdp

#endif  // SRC_METRICS_INTERVALS_H_
