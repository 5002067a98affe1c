// An in-kernel pipe.
//
// The paper positions splice against the streams-based pipe of 8th Edition
// UNIX (Presotto & Ritchie) and Ritchie's streams pseudoterminal: those
// cross-connect *file descriptors* inside the kernel, while "splice, in
// contrast, provides the cross-connection of devices" (Section 2).  This
// pipe completes the picture in the other direction: it implements the
// classic byte-stream pipe as a kernel object exposing the same
// asynchronous interface as character devices and sockets — so a pipe end
// is itself spliceable, giving sendfile-style patterns (file -> pipe ->
// consumer; producer -> pipe -> file) for free.
//
// Semantics follow pipe(2):
//  * a bounded ring of bytes; writes are accepted whole if they fit
//    (callers chunk at <= capacity), refused otherwise;
//  * an accepted write's `done` callback fires when the READER has drained
//    those bytes — that is the back-pressure a blocked writer (or a splice
//    sink) paces itself by;
//  * reads deliver as soon as any bytes are available; with the write end
//    closed and the ring empty they deliver 0 (EOF), which is also the
//    splice end-of-stream convention;
//  * closing the read end breaks the pipe: pending and future writes fail.

#ifndef SRC_IPC_PIPE_H_
#define SRC_IPC_PIPE_H_

#include <cstdint>
#include <deque>

#include "src/dev/char_device.h"

namespace ikdp {

class Pipe : public CharDevice {
 public:
  explicit Pipe(int64_t capacity_bytes = 32 * 1024);

  const char* Name() const override { return "pipe"; }

  bool SupportsWrite() const override { return true; }
  bool SupportsRead() const override { return true; }

  // CharDevice:
  IKDP_CTX_ANY bool WriteAsync(BufData data, int64_t nbytes, EventFn done) override;
  IKDP_CTX_ANY bool ReadAsync(int64_t max_bytes, ReadDone done) override;
  IKDP_CTX_ANY bool CancelRead() override;
  int64_t WriteSpace() const override;

  // End-of-life transitions (driven by descriptor close).
  IKDP_CTX_ANY void CloseWriteEnd();
  IKDP_CTX_ANY void CloseReadEnd();

  bool write_closed() const { return write_closed_; }
  bool read_closed() const { return read_closed_; }
  int64_t Buffered() const { return total_written_ - total_read_; }

  struct Stats {
    int64_t bytes_written = 0;
    uint64_t writes_refused = 0;  // full or broken pipe
  };
  const Stats& stats() const { return stats_; }

 private:
  struct WriteDone {
    int64_t drain_mark;  // fires once total_read_ >= this
    EventFn done;
  };

  // Delivers data (or EOF) to a pending reader if possible, then fires any
  // write completions the drain reached.
  IKDP_CTX_ANY void TryCompleteRead();
  IKDP_CTX_ANY void FireDrainedWrites();

  const int64_t capacity_;
  std::deque<uint8_t> ring_;
  int64_t total_written_ = 0;
  int64_t total_read_ = 0;
  bool write_closed_ = false;
  bool read_closed_ = false;

  // The outstanding ReadAsync (empty when none) and its size limit.
  ReadDone read_done_;
  int64_t read_max_ = 0;

  std::deque<WriteDone> write_dones_;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_IPC_PIPE_H_
