// A rate-paced output device: the model for audio and video DACs.
//
// "The program assumes the audio DAC driver converts and delivers audio at
// the appropriate playback rate to match the recording rate in the file.
// Several audio device interfaces (e.g. Sun's /dev/audio) operate in this
// fashion."  (paper Section 4)
//
// The device holds a FIFO of `fifo_bytes`; accepted chunks drain at
// `rate_bps`.  A WriteAsync completes (fires `done`) when its bytes have
// fully drained, which is exactly the natural pacing a splice to the device
// inherits: the flow-control watermarks keep the FIFO topped up and the
// splice proceeds at playback speed.

#ifndef SRC_DEV_PACED_SINK_H_
#define SRC_DEV_PACED_SINK_H_

#include <cstdint>
#include <string>

#include "src/dev/char_device.h"
#include "src/sim/simulator.h"

namespace ikdp {

class PacedSink : public CharDevice {
 public:
  PacedSink(Simulator* sim, std::string name, double rate_bps, int64_t fifo_bytes);

  const char* Name() const override { return name_.c_str(); }

  bool SupportsWrite() const override { return true; }
  IKDP_CTX_ANY bool WriteAsync(BufData data, int64_t nbytes, EventFn done) override;
  int64_t WriteSpace() const override;

  // Total bytes ever consumed by the DAC clock side.
  int64_t bytes_consumed() const { return bytes_accepted_ - Backlog(); }
  int64_t bytes_accepted() const { return bytes_accepted_; }

  double rate_bps() const { return rate_bps_; }

 private:
  // Bytes currently sitting in the FIFO.
  int64_t Backlog() const;

  Simulator* sim_;
  std::string name_;
  double rate_bps_;
  int64_t fifo_bytes_;
  // The virtual time at which everything accepted so far will have drained.
  SimTime drain_frontier_ = 0;
  int64_t bytes_accepted_ = 0;
};

}  // namespace ikdp

#endif  // SRC_DEV_PACED_SINK_H_
