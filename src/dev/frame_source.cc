#include "src/dev/frame_source.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

namespace ikdp {

FrameSource::FrameSource(Simulator* sim, std::string name, int64_t frame_bytes,
                         SimDuration frame_interval)
    : sim_(sim),
      name_(std::move(name)),
      frame_bytes_(frame_bytes),
      frame_interval_(frame_interval) {
  assert(frame_bytes > 0 && frame_interval > 0);
}

void FrameSource::FillFrame(int64_t n, int64_t nbytes, std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(nbytes));
  for (int64_t i = 0; i < nbytes; ++i) {
    (*out)[static_cast<size_t>(i)] = static_cast<uint8_t>((n * 131 + i) & 0xff);
  }
}

bool FrameSource::ReadAsync(int64_t max_bytes, ReadDone done) {
  assert(done && "an empty callback would read as no read pending");
  if (request_done_ || max_bytes <= 0) {
    return false;
  }
  request_max_ = max_bytes;
  request_done_ = std::move(done);
  // The next frame boundary: frames scan out at t = k * frame_interval.
  // Mid-frame read positions deliver from the frame currently scanned.
  const SimTime now = sim_->Now();
  if (frame_offset_ > 0 || now >= (frames_produced_ + 1) * frame_interval_) {
    // A frame is in progress or already complete: deliver immediately.
    sim_->After(0, [this] { DeliverChunk(); });
  } else {
    const SimTime next_frame = (frames_produced_ + 1) * frame_interval_;
    sim_->At(next_frame, [this] { DeliverChunk(); });
  }
  return true;
}

void FrameSource::DeliverChunk() {
  assert(request_done_);
  const int64_t n = std::min(request_max_, frame_bytes_ - frame_offset_);
  auto data = std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(n));
  const int64_t frame_no = frames_produced_;
  for (int64_t i = 0; i < n; ++i) {
    (*data)[static_cast<size_t>(i)] =
        static_cast<uint8_t>((frame_no * 131 + frame_offset_ + i) & 0xff);
  }
  frame_offset_ += n;
  if (frame_offset_ >= frame_bytes_) {
    frame_offset_ = 0;
    ++frames_produced_;
  }
  ReadDone done = std::move(request_done_);
  done(std::move(data), n);
}

}  // namespace ikdp
