#include "src/metrics/slo.h"

#include <algorithm>

namespace ikdp {

void SloMonitor::OnRequestStart(uint64_t id, SimTime t) {
  open_[id] = Open{t, t, false};
  if (first_start_ < 0 || t < first_start_) {
    first_start_ = t;
  }
}

void SloMonitor::OnRequestProgress(uint64_t id, SimTime t) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  it->second.last_progress = t;
  it->second.flagged = false;  // progress clears a stall flag
}

void SloMonitor::OnRequestEnd(uint64_t id, SimTime t, int64_t bytes, bool error) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  latency_.Add(t - it->second.start);
  open_.erase(it);
  ++completed_;
  if (error) {
    ++errors_;
  } else {
    bytes_ += bytes;
  }
  last_end_ = std::max(last_end_, t);
}

std::vector<uint64_t> SloMonitor::CheckStalls(SimTime now) {
  std::vector<uint64_t> stalled;
  for (auto& [id, o] : open_) {
    if (!o.flagged && now - o.last_progress > stall_threshold_) {
      o.flagged = true;
      ++stall_flags_;
      stalled.push_back(id);
    }
  }
  return stalled;
}

SloReport SloMonitor::Report(SimTime now) const {
  SloReport r;
  r.completed = completed_;
  r.errors = errors_;
  r.open = open_.size();
  r.stall_flags = stall_flags_;
  r.p50_ns = latency_.Quantile(0.50);
  r.p99_ns = latency_.Quantile(0.99);
  r.p999_ns = latency_.Quantile(0.999);
  r.max_ns = latency_.max();
  r.bytes = bytes_;
  r.window_start = first_start_ >= 0 ? first_start_ : 0;
  r.window_end = last_end_ > 0 ? last_end_ : now;
  const SimDuration window = r.window_end - r.window_start;
  r.goodput_bps = window > 0 ? static_cast<double>(bytes_) * 1e9 / static_cast<double>(window)
                             : 0.0;
  return r;
}

}  // namespace ikdp
