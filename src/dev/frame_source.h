// A framebuffer scan-out source.
//
// The paper's implementation supports "framebuffer-to-socket splices for
// sending graphical images and video" (Section 5.1).  This device produces
// one frame of `frame_bytes` every `frame_interval`; ReadAsync delivers the
// next frame when it is scanned out (immediately, if a complete frame is
// already pending).  Frame contents are a deterministic pattern stamped with
// the frame number so receivers can verify integrity and ordering.

#ifndef SRC_DEV_FRAME_SOURCE_H_
#define SRC_DEV_FRAME_SOURCE_H_

#include <cstdint>
#include <string>

#include "src/dev/char_device.h"
#include "src/sim/simulator.h"

namespace ikdp {

class FrameSource : public CharDevice {
 public:
  FrameSource(Simulator* sim, std::string name, int64_t frame_bytes, SimDuration frame_interval);

  const char* Name() const override { return name_.c_str(); }

  bool SupportsRead() const override { return true; }
  IKDP_CTX_ANY bool ReadAsync(int64_t max_bytes, ReadDone done) override;

  int64_t frame_bytes() const { return frame_bytes_; }
  SimDuration frame_interval() const { return frame_interval_; }
  int64_t frames_produced() const { return frames_produced_; }

  // Fills `out` with the deterministic content of frame `n` (for receivers
  // to verify against).
  static void FillFrame(int64_t n, int64_t nbytes, std::vector<uint8_t>* out);

 private:
  IKDP_CTX_ANY void DeliverChunk();

  Simulator* sim_;
  std::string name_;
  int64_t frame_bytes_;
  SimDuration frame_interval_;
  int64_t frames_produced_ = 0;
  int64_t frame_offset_ = 0;  // read position within the current frame

  // The outstanding ReadAsync (empty when none) and its size limit.
  ReadDone request_done_;
  int64_t request_max_ = 0;
};

}  // namespace ikdp

#endif  // SRC_DEV_FRAME_SOURCE_H_
