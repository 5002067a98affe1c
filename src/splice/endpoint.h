// Splice endpoints: the abstraction the engine pumps data between.
//
// The paper's implementation supports file-to-file, socket-to-socket (UDP),
// and framebuffer-to-socket splices, plus file-to-device playback in its
// example code.  The engine (splice_engine.h) is endpoint-agnostic: a source
// produces chunks asynchronously, a sink consumes them asynchronously, and
// everything in between — callout-deferred write handlers, rate-based flow
// control, shared data areas — is common mechanism.
//
// A chunk is at most one file block.  For file endpoints, `data` is the
// cache buffer's data area and `src_buf` the cache buffer itself, so the
// sink can alias the same memory (the paper's zero-copy buffer-header trick)
// and the engine can release the buffer when the sink is done.
//
// Completion callbacks are move-only InlineFns.  StartRead and StartWrite
// take `done` by value; a refused start (false) drops it, so the engine
// builds a fresh closure for every attempt.

#ifndef SRC_SPLICE_ENDPOINT_H_
#define SRC_SPLICE_ENDPOINT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/buf/buf.h"
#include "src/kern/ctx.h"
#include "src/sim/inline_fn.h"

namespace ikdp {

struct SpliceChunk {
  int64_t index = 0;   // sequence number within the splice
  int64_t nbytes = 0;  // valid payload bytes (0 = end-of-file marker)
  BufData data;        // shared data area
  Buf* src_buf = nullptr;  // cache buffer to release (file sources)
  // Errno of a failed transfer, 0 on success.  Read side: set by the source
  // before delivering the chunk (kBufError's b_error); aborts the splice.
  // Write side: the sink records the errno here before calling done(false) —
  // the chunk outlives the StartWrite call, so writing through the chunk
  // pointer is safe until `done` fires.
  int error = 0;
};

class SpliceSource {
 public:
  using Done = InlineFn<void(SpliceChunk)>;
  virtual ~SpliceSource() = default;

  // Total bytes this source will produce, or -1 when unknown (streams).
  virtual int64_t TotalBytes() const = 0;

  // Preferred chunk payload size.
  virtual int64_t ChunkBytes() const = 0;

  // Starts the asynchronous read of chunk `index`.  `done` fires in kernel
  // context (interrupt level, or synchronously for cache hits) with the
  // chunk; nbytes == 0 signals end of stream.  Returns false if the read
  // cannot be started right now (no buffer, request already outstanding) —
  // the engine retries on the next softclock tick or flow-control event.
  IKDP_CTX_ANY virtual bool StartRead(int64_t index, Done done) = 0;

  // Releases source-side resources of a chunk whose write completed.
  IKDP_CTX_ANY virtual void Release(SpliceChunk& chunk) = 0;

  // Aborts an outstanding StartRead whose `done` will otherwise never fire
  // because no more data is coming (stream sources blocked on a peer, e.g.
  // a pipe or socket recv).  Returns true if a pending read was dropped —
  // its `done` callback will NOT be invoked and the engine adjusts its
  // counters.  Sources whose reads always complete (disk: biodone is
  // guaranteed) keep the default and return false.
  IKDP_CTX_ANY virtual bool CancelRead() { return false; }
};

class SpliceSink {
 public:
  using Done = InlineFn<void(bool ok)>;
  virtual ~SpliceSink() = default;

  // Starts writing `chunk`; `done(ok)` fires in kernel context when the sink
  // has consumed it (ok == false: unrecoverable write error, which aborts
  // the splice; the sink stores the errno in chunk.error first).  Returns
  // false if the sink cannot accept right now (device FIFO or socket buffer
  // full) — the engine retries on the next softclock tick, and must not
  // have retained `done`.
  IKDP_CTX_ANY virtual bool StartWrite(SpliceChunk& chunk, Done done) = 0;
};

// A splice's endpoints as the syscall layer builds them: the source, one
// sink per destination, and the sink-side file update (offset and inode
// size) to run with the bytes moved at completion — null unless a sink is a
// regular file.
struct SpliceEndpoints {
  std::unique_ptr<SpliceSource> source;
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  InlineFn<void(int64_t)> on_moved;
};

}  // namespace ikdp

#endif  // SRC_SPLICE_ENDPOINT_H_
