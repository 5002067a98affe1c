// Recycled datagram payload buffers.
//
// Every datagram carries a snapshot of its payload across the wire (the
// sender may reuse its buffer once the datagram has left the interface).
// Taking that snapshot with make_shared costs a control block and a payload
// allocation per datagram; the pool instead hands out BufData whose
// deleter returns the payload vector, capacity kept, to the pool, and whose
// control block comes from the pool's own free list, in the spirit of the
// BSD mbuf cluster pool.  Once a run has as many buffers as it ever has
// datagrams in flight, a snapshot allocates nothing.
//
// Each run has its own pool (ForCurrentRun, held by SimState).  A BufData
// may outlive its pool, e.g. a received payload kept after the Simulator is
// destroyed: it stays valid, and releasing it frees the buffer instead of
// recycling it.  Not thread-safe; a run and its buffers stay on one thread.

#ifndef SRC_NET_PAYLOAD_POOL_H_
#define SRC_NET_PAYLOAD_POOL_H_

#include <cstddef>
#include <cstdint>

#include "src/buf/buf.h"

namespace ikdp {

class PayloadPool {
 public:
  PayloadPool();
  ~PayloadPool();

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  // The current run's pool, created on first use.
  static PayloadPool& ForCurrentRun();

  // A buffer of exactly `nbytes`: the first min(nbytes, src->size()) bytes
  // of `src` (a null `src` reads as empty), zero-padded.
  BufData Snapshot(const BufData& src, int64_t nbytes);

  // Buffers ever created: the most snapshots that were alive at once.
  size_t buffers() const;

 private:
  struct Core;
  struct Recycle;
  template <typename T>
  struct BlockAlloc;

  Core* core_;
};

}  // namespace ikdp

#endif  // SRC_NET_PAYLOAD_POOL_H_
