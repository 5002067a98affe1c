// Character special devices.
//
// The paper's splice connects files and devices; its example (Section 4)
// writes digitized audio to /dev/speaker and video frames to /dev/video_dac,
// and the implementation also supports framebuffer-to-socket splices.  These
// devices present a kernel-level asynchronous interface that both the
// read()/write() syscall path (wrapped with sleep/wakeup by the VFS layer)
// and the splice engine (callback-driven) use:
//
//  * WriteAsync: offer a chunk; the device accepts it if it has buffer
//    space and fires `done` when the chunk has been consumed (e.g. played
//    out by the DAC clock).  Returns false when full — retry from `done`.
//  * ReadAsync: request a chunk; the device fires `done` with data when it
//    has some (e.g. the next scanned-out frame).  Returns false when the
//    direction is unsupported or a request is already pending.
//
// Callbacks are move-only InlineFns: a refused WriteAsync or ReadAsync drops
// its `done`, so the caller builds a fresh one for every attempt.

#ifndef SRC_DEV_CHAR_DEVICE_H_
#define SRC_DEV_CHAR_DEVICE_H_

#include <cstdint>

#include "src/buf/buf.h"
#include "src/kern/ctx.h"
#include "src/sim/inline_fn.h"

namespace ikdp {

class CharDevice {
 public:
  using ReadDone = InlineFn<void(BufData, int64_t)>;
  virtual ~CharDevice() = default;

  virtual const char* Name() const = 0;

  // Direction capabilities; the descriptor layer fails unsupported
  // operations up front instead of blocking forever.
  virtual bool SupportsWrite() const { return false; }
  virtual bool SupportsRead() const { return false; }

  // Offers `nbytes` of `data` to the device.  When accepted, `done` fires
  // once the device has consumed them and can take more.  Returns false
  // (nothing scheduled) if the device cannot accept right now or does not
  // support writing.
  IKDP_CTX_ANY virtual bool WriteAsync(BufData data, int64_t nbytes, EventFn done) {
    (void)data;
    (void)nbytes;
    (void)done;
    return false;
  }

  // Requests up to `max_bytes`.  When data is available `done` fires with a
  // buffer and the byte count.  Returns false if reading is unsupported or a
  // request is already outstanding.
  IKDP_CTX_ANY virtual bool ReadAsync(int64_t max_bytes, ReadDone done) {
    (void)max_bytes;
    (void)done;
    return false;
  }

  // Drops the outstanding ReadAsync, if any; its `done` will never fire.
  // Returns true when a pending read was dropped.  Used by splice teardown
  // so a reader blocked on a quiet producer does not pin the stream.
  IKDP_CTX_ANY virtual bool CancelRead() { return false; }

  // Bytes of internal buffer space currently free for writes (0 for pure
  // sources).  Lets writers size their chunks.
  virtual int64_t WriteSpace() const { return 0; }

  // Wakeup channel a blocked writer sleeps on; the `done` callback of each
  // accepted WriteAsync is expected to wake it as space frees up.
  virtual const void* WriteChannel() const { return this; }
};

}  // namespace ikdp

#endif  // SRC_DEV_CHAR_DEVICE_H_
