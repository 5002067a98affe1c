// UDP sockets over simulated links.
//
// The paper's implementation supports "socket-to-socket splices for the UDP
// transport protocol" (Section 5.1).  This socket models the 4.2BSD UDP path
// at datagram granularity:
//
//  * SendAsync: one call = one datagram.  The datagram occupies send-buffer
//    space until the interface has put it on the wire; `done` fires then.
//    Returns false when the send buffer has no room (caller backs off and
//    retries from a completion, which is exactly the splice flow-control
//    hook) or when the socket has no peer.
//  * Datagram arrival raises a network interrupt, charges protocol
//    processing (fixed per-packet cost + a checksum pass over the data) and
//    queues the datagram in the receive buffer, dropping it if full — UDP
//    semantics.  A pending RecvAsync is completed from the interrupt.
//
// Process-context send/recv syscalls are built on these hooks by the OS
// layer (src/os/kernel.h) with sleep/wakeup at kPriSock.

#ifndef SRC_NET_UDP_SOCKET_H_
#define SRC_NET_UDP_SOCKET_H_

#include <cstdint>
#include <utility>

#include "src/buf/buf.h"
#include "src/hw/link.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/sim/fifo.h"
#include "src/sim/inline_fn.h"

namespace ikdp {

class UdpSocket {
 public:
  UdpSocket(CpuSystem* cpu, int64_t sndbuf_bytes = 48 * 1024, int64_t rcvbuf_bytes = 48 * 1024);

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Connects the send side of this socket to `peer` across `link`
  // (unidirectional; call on both sockets with both links for full duplex).
  void ConnectTo(UdpSocket* peer, NetworkLink* link);

  // --- kernel-level asynchronous API ---

  // Sends one datagram of `nbytes`.  `done` (may be null) fires when the
  // datagram has left the interface (send-buffer space released).  Returns
  // false if there is no room, no peer, or the interface queue rejected it.
  // The wire shares `data`'s area, and the receiver reads its first
  // `nbytes`; anyone who writes the area later (the sender reusing its
  // buffer) goes through MakeWritable, so the datagram keeps the bytes it
  // was sent with.  A payload shorter than `nbytes` is copied and
  // zero-padded; `data` may be null when `nbytes` is 0 (an end-of-stream
  // datagram).
  IKDP_CTX_ANY bool SendAsync(BufData data, int64_t nbytes, EventFn done);

  using RecvDone = InlineFn<void(BufData, int64_t)>;

  // Delivers the next datagram (truncated to `max_bytes`, UDP-style) to
  // `done` as soon as one is available.  One outstanding request at a time.
  IKDP_CTX_ANY bool RecvAsync(int64_t max_bytes, RecvDone done);

  // Drops the outstanding RecvAsync, if any; its `done` will never fire.
  // Returns true when a pending receive was dropped.  Splice teardown uses
  // this so a receiver parked on a quiet wire cannot pin an errored or
  // cancelled stream.
  IKDP_CTX_ANY bool CancelRecv();

  // Send-buffer space currently free.
  int64_t SendSpace() const { return sndbuf_bytes_ - snd_inflight_; }

  // Receive queue state.
  bool HasData() const { return !rcv_queue_.empty(); }
  int64_t RecvQueuedBytes() const { return rcv_queued_bytes_; }

  // Wakeup channels for blocking wrappers: the OS layer sleeps on these and
  // the socket wakes them on send-space / data arrival.
  const void* SendChannel() const { return &snd_inflight_; }
  const void* RecvChannel() const { return &rcv_queued_bytes_; }

  struct Stats {
    uint64_t dgrams_sent = 0;
    uint64_t dgrams_received = 0;
    uint64_t dgrams_dropped_rcvbuf = 0;  // receive-buffer overflow
    uint64_t dgrams_dropped_wire = 0;    // interface queue overflow
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Datagram {
    BufData data;
    int64_t nbytes = 0;
  };

  // A datagram on the interface, not yet sent.  The link completes a
  // socket's datagrams in the order it sent them.
  struct TxPending {
    EventFn done;
    int64_t nbytes = 0;
    SpanId span = kNoSpan;
    uint64_t serial = 0;
  };

  // Receive-side entry, called from the link: raises the network interrupt
  // itself (RunInterrupt), so callable from any context.  `serial` is the
  // datagram serial minted at SendAsync, for kUdpRecv trace pairing.
  IKDP_CTX_ANY void Deliver(BufData data, int64_t nbytes, uint64_t serial);

  // Datagram `serial`, the oldest in tx_pending_, has left the interface.
  IKDP_CTX_ANY void OnSent(uint64_t serial);

  // Completes a pending RecvAsync if there is data (runs at interrupt level
  // on the delivery path, in process context from RecvAsync).
  IKDP_CTX_ANY void TryCompleteRecv();

  CpuSystem* cpu_;
  int64_t sndbuf_bytes_;
  int64_t rcvbuf_bytes_;

  UdpSocket* peer_ = nullptr;
  NetworkLink* link_ = nullptr;

  int64_t snd_inflight_ = 0;
  Fifo<TxPending> tx_pending_;
  Fifo<Datagram> rcv_queue_;
  int64_t rcv_queued_bytes_ = 0;

  // The outstanding RecvAsync (empty when none) and its size limit.
  RecvDone recv_done_;
  int64_t recv_max_ = 0;

  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_NET_UDP_SOCKET_H_
