#include "src/ipc/pipe.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ikdp {

Pipe::Pipe(int64_t capacity_bytes) : capacity_(capacity_bytes) {
  assert(capacity_bytes > 0);
}

int64_t Pipe::WriteSpace() const {
  if (read_closed_ || write_closed_) {
    return 0;
  }
  return capacity_ - Buffered();
}

bool Pipe::WriteAsync(BufData data, int64_t nbytes, EventFn done) {
  assert(nbytes >= 0);
  assert(nbytes <= capacity_ && "chunk larger than the pipe can ever hold");
  if (read_closed_ || write_closed_ || nbytes > WriteSpace()) {
    ++stats_.writes_refused;
    return false;
  }
  if (nbytes > 0) {
    const auto begin = data->begin();
    ring_.insert(ring_.end(), begin, begin + nbytes);
    total_written_ += nbytes;
    stats_.bytes_written += nbytes;
  }
  if (done) {
    write_dones_.push_back(WriteDone{total_written_, std::move(done)});
  }
  TryCompleteRead();
  // A zero-byte write's completion fires as soon as the current backlog
  // drains; if the ring is already empty it fires right away.
  FireDrainedWrites();
  return true;
}

bool Pipe::ReadAsync(int64_t max_bytes, ReadDone done) {
  assert(done && "an empty callback would read as no read pending");
  if (read_done_ || read_closed_ || max_bytes <= 0) {
    return false;
  }
  read_max_ = max_bytes;
  read_done_ = std::move(done);
  TryCompleteRead();
  return true;
}

bool Pipe::CancelRead() {
  if (!read_done_) {
    return false;
  }
  // The parked reader's callback is dropped, never invoked; buffered bytes
  // stay in the ring for any future reader.
  read_done_ = nullptr;
  read_max_ = 0;
  return true;
}

void Pipe::TryCompleteRead() {
  if (!read_done_) {
    return;
  }
  const int64_t avail = Buffered();
  if (avail == 0 && !write_closed_) {
    return;  // wait for data
  }
  ReadDone done = std::move(read_done_);
  if (avail == 0) {
    done(MakeBufData(), 0);  // EOF
    return;
  }
  const int64_t n = std::min(avail, read_max_);
  BufData out = std::make_shared<std::vector<uint8_t>>(ring_.begin(), ring_.begin() + n);
  ring_.erase(ring_.begin(), ring_.begin() + n);
  total_read_ += n;
  done(std::move(out), n);
  FireDrainedWrites();
}

void Pipe::FireDrainedWrites() {
  while (!write_dones_.empty() && write_dones_.front().drain_mark <= total_read_) {
    EventFn done = std::move(write_dones_.front().done);
    write_dones_.pop_front();
    done();
  }
}

void Pipe::CloseWriteEnd() {
  write_closed_ = true;
  // A reader parked on an empty pipe now sees EOF.
  TryCompleteRead();
}

void Pipe::CloseReadEnd() {
  read_closed_ = true;
  // Nobody will drain the ring: discard it and release blocked writers
  // (their data is lost, as with a real broken pipe).
  total_read_ = total_written_;
  ring_.clear();
  FireDrainedWrites();
}

}  // namespace ikdp
