#include "src/metrics/intervals.h"

#include <limits>

namespace ikdp {

IntervalPairer::Key IntervalPairer::KeyOf(const IntervalPair& pair, const TraceRecord& rec) {
  return {pair.begin, rec.a, pair.key == PairKey::kAB ? rec.b : 0,
          pair.key == PairKey::kATag ? rec.tag : ""};
}

void IntervalPairer::Observe(const TraceRecord& rec, const Sink& sink) {
  if (rec.kind == TraceKind::kSpliceDone) {
    // The serial's open reads are one contiguous run of the ordered table.
    auto it = open_.lower_bound(
        {TraceKind::kSpliceRead, rec.a, std::numeric_limits<int64_t>::min(), ""});
    while (it != open_.end() && it->first.kind == TraceKind::kSpliceRead &&
           it->first.a == rec.a) {
      sink(it->second, rec);
      it = open_.erase(it);
    }
    return;
  }
  for (const IntervalPair& pair : kIntervalPairs) {
    if (rec.kind == pair.begin) {
      open_[KeyOf(pair, rec)] = rec;
      return;
    }
    if (rec.kind == pair.end) {
      auto it = open_.find(KeyOf(pair, rec));
      if (it != open_.end()) {
        sink(it->second, rec);
        open_.erase(it);
      }
      return;
    }
  }
}

}  // namespace ikdp
