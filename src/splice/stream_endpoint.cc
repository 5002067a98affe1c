#include "src/splice/stream_endpoint.h"

#include <algorithm>
#include <utility>

namespace ikdp {

bool SocketSpliceSource::StartRead(int64_t index, std::function<void(SpliceChunk)> done) {
  return sock_->RecvAsync(chunk_bytes_, [index, done = std::move(done)](BufData data, int64_t n) {
    SpliceChunk chunk;
    chunk.index = index;
    chunk.nbytes = n;  // n == 0: end-of-stream datagram
    chunk.data = std::move(data);
    done(std::move(chunk));
  });
}

bool SocketSpliceSink::StartWrite(SpliceChunk& chunk, std::function<void(bool)> done) {
  CpuSystem* cpu = cpu_;
  return sock_->SendAsync(chunk.data, chunk.nbytes, [cpu, done = std::move(done)]() mutable {
    // Transmit-complete interrupt.
    cpu->RunInterrupt(cpu->costs().interrupt_overhead,
                      [done = std::move(done)] { done(true); });
  });
}

bool DeviceSpliceSink::StartWrite(SpliceChunk& chunk, std::function<void(bool)> done) {
  CpuSystem* cpu = cpu_;
  return dev_->WriteAsync(chunk.data, chunk.nbytes, [cpu, done = std::move(done)] {
    // Device completion interrupt.
    cpu->RunInterrupt(cpu->costs().interrupt_overhead, [done] { done(true); });
  });
}

bool DeviceSpliceSource::StartRead(int64_t index, std::function<void(SpliceChunk)> done) {
  int64_t target = chunk_bytes_;
  if (remaining_ >= 0) {
    target = std::min(target, remaining_);
  }
  if (target == 0 || pending_eof_) {
    // Budget exhausted or the device already reported end-of-stream:
    // deliver the marker synchronously.
    pending_eof_ = false;
    SpliceChunk eof;
    eof.index = index;
    eof.nbytes = 0;
    done(std::move(eof));
    return true;
  }
  acc_ = MakeBufData();
  acc_->clear();
  return IssueRead(index, target, std::move(done));
}

bool DeviceSpliceSource::IssueRead(int64_t index, int64_t target,
                                   std::function<void(SpliceChunk)> done) {
  const int64_t want = target - static_cast<int64_t>(acc_->size());
  return dev_->ReadAsync(
      want, [this, index, target, done = std::move(done)](BufData data, int64_t n) {
        if (n > 0) {
          acc_->insert(acc_->end(), data->begin(), data->begin() + n);
          if (remaining_ >= 0) {
            remaining_ -= n;
          }
        } else {
          saw_eof_ = true;
        }
        const bool full = static_cast<int64_t>(acc_->size()) >= target;
        if (!coalesce_ || full || saw_eof_ || remaining_ == 0) {
          Deliver(index, done);
          return;
        }
        // Short delivery: keep accumulating this chunk.  A refusal here
        // cannot happen (this source is the device's only reader), but
        // deliver what we have rather than wedging if it ever does.
        if (!IssueRead(index, target, done)) {
          Deliver(index, done);
        }
      });
}

void DeviceSpliceSource::Deliver(int64_t index, const std::function<void(SpliceChunk)>& done) {
  SpliceChunk chunk;
  chunk.index = index;
  chunk.nbytes = static_cast<int64_t>(acc_->size());
  chunk.data = std::move(acc_);
  acc_ = nullptr;
  if (chunk.nbytes == 0) {
    // Nothing accumulated and the stream ended: this IS the EOF marker.
    done(std::move(chunk));
    return;
  }
  if (saw_eof_) {
    pending_eof_ = true;  // next StartRead delivers the marker
  }
  done(std::move(chunk));
}

}  // namespace ikdp
