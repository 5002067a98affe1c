#include "src/splice/stream_endpoint.h"

#include <algorithm>
#include <utility>

namespace ikdp {

bool SocketSpliceSource::StartRead(int64_t index, Done done) {
  if (done_) {
    return false;  // the socket serves one receive at a time
  }
  // Parked before the call: a queued datagram completes inside RecvAsync.
  done_ = std::move(done);
  if (!sock_->RecvAsync(chunk_bytes_, [this, index](BufData data, int64_t n) {
        SpliceChunk chunk;
        chunk.index = index;
        chunk.nbytes = n;  // n == 0: end-of-stream datagram
        chunk.data = std::move(data);
        // Unparked before the call, which may start the next read.
        Done(std::move(done_))(std::move(chunk));
      })) {
    done_ = nullptr;
    return false;
  }
  return true;
}

bool SocketSpliceSink::StartWrite(SpliceChunk& chunk, Done done) {
  // Datagrams complete, and their interrupts run, in send order: each
  // completion takes the oldest `done`.
  if (!sock_->SendAsync(chunk.data, chunk.nbytes, [this] {
        // Transmit-complete interrupt.
        cpu_->RunInterrupt(cpu_->costs().interrupt_overhead, [this] { done_.pop_front()(true); });
      })) {
    return false;
  }
  done_.push_back(std::move(done));
  return true;
}

bool DeviceSpliceSink::StartWrite(SpliceChunk& chunk, Done done) {
  return dev_->WriteAsync(chunk.data, chunk.nbytes, [this, done = std::move(done)]() mutable {
    // Device completion interrupt.
    cpu_->RunInterrupt(cpu_->costs().interrupt_overhead, [done = std::move(done)] { done(true); });
  });
}

bool DeviceSpliceSource::StartRead(int64_t index, Done done) {
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
    done(std::move(eof));
    return true;
  }
  if (done_) {
    return false;  // the device serves one read at a time
  }
  acc_ = std::make_shared<std::vector<uint8_t>>();
  acc_->reserve(static_cast<size_t>(target));
  // Parked before the call: a device with data completes inside ReadAsync.
  done_ = std::move(done);
  if (!IssueRead(index, target)) {
    done_ = nullptr;
    return false;
  }
  return true;
}

bool DeviceSpliceSource::IssueRead(int64_t index, int64_t target) {
  const int64_t want = target - static_cast<int64_t>(acc_->size());
  return dev_->ReadAsync(want, [this, index, target](BufData data, int64_t n) {
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
      Deliver(index);
      return;
    }
    // Short delivery: keep accumulating this chunk.  A refusal here
    // cannot happen (this source is the device's only reader), but
    // deliver what we have rather than wedging if it ever does.
    if (!IssueRead(index, target)) {
      Deliver(index);
    }
  });
}

void DeviceSpliceSource::Deliver(int64_t index) {
  SpliceChunk chunk;
  chunk.index = index;
  chunk.nbytes = static_cast<int64_t>(acc_->size());
  chunk.data = std::exchange(acc_, nullptr);
  // An empty chunk (nothing accumulated, stream ended) IS the EOF marker; a
  // non-empty one that hit end-of-stream leaves it for the next StartRead.
  if (chunk.nbytes > 0 && saw_eof_) {
    pending_eof_ = true;
  }
  Done(std::move(done_))(std::move(chunk));  // unparked first: may start the next read
}

}  // namespace ikdp
