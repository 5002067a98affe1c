#include "src/dev/paced_sink.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ikdp {

PacedSink::PacedSink(Simulator* sim, std::string name, double rate_bps, int64_t fifo_bytes)
    : sim_(sim), name_(std::move(name)), rate_bps_(rate_bps), fifo_bytes_(fifo_bytes) {
  assert(rate_bps > 0 && fifo_bytes > 0);
}

int64_t PacedSink::Backlog() const {
  const SimTime now = sim_->Now();
  if (drain_frontier_ <= now) {
    return 0;
  }
  return static_cast<int64_t>(ToSeconds(drain_frontier_ - now) * rate_bps_);
}

int64_t PacedSink::WriteSpace() const { return std::max<int64_t>(0, fifo_bytes_ - Backlog()); }

bool PacedSink::WriteAsync(BufData data, int64_t nbytes, EventFn done) {
  (void)data;  // contents are "played", not stored
  assert(nbytes > 0);
  if (Backlog() + nbytes > fifo_bytes_) {
    return false;
  }
  const SimTime start = std::max(sim_->Now(), drain_frontier_);
  drain_frontier_ = start + TransferTime(nbytes, rate_bps_);
  bytes_accepted_ += nbytes;
  sim_->At(drain_frontier_, done ? std::move(done) : EventFn([] {}));  // an event either way
  return true;
}

}  // namespace ikdp
