// Stream splice endpoints: UDP sockets, paced character devices, and the
// framebuffer (paper Section 5.1: "socket-to-socket splices for the UDP
// transport protocol, and framebuffer-to-socket splices").
//
// Stream sources deliver chunks strictly in order and allow one outstanding
// read at a time (a socket has one receive queue; a framebuffer one scan-out
// position), so StartRead returns false while a request is pending and the
// engine's flow control degrades gracefully to depth-1 pipelining on that
// side.  The source keeps that read's `done`, so the closure it hands the
// device carries no callback and stays inline.  Sinks refuse chunks while
// their buffers are full; the engine retries each tick, which paces a device
// splice at playback rate.

#ifndef SRC_SPLICE_STREAM_ENDPOINT_H_
#define SRC_SPLICE_STREAM_ENDPOINT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/dev/char_device.h"
#include "src/kern/cpu.h"
#include "src/net/udp_socket.h"
#include "src/sim/fifo.h"
#include "src/splice/endpoint.h"

namespace ikdp {

// Receives datagrams from a socket.  Unbounded: the splice runs until a
// zero-length datagram (the UDP end-of-stream convention used throughout
// this codebase) arrives or the splice is cancelled.
class SocketSpliceSource : public SpliceSource {
 public:
  SocketSpliceSource(UdpSocket* sock, int64_t chunk_bytes = kBlockSize)
      : sock_(sock), chunk_bytes_(chunk_bytes) {}

  int64_t TotalBytes() const override { return -1; }
  int64_t ChunkBytes() const override { return chunk_bytes_; }

  IKDP_CTX_ANY bool StartRead(int64_t index, Done done) override;
  void Release(SpliceChunk& chunk) override { (void)chunk; }
  IKDP_CTX_ANY bool CancelRead() override {
    done_ = nullptr;
    return sock_->CancelRecv();
  }

 private:
  UdpSocket* sock_;
  int64_t chunk_bytes_;
  Done done_;  // the outstanding receive's completion
};

// Sends each chunk as one datagram.  The chunk completes when the datagram
// has left the interface (send-buffer space released).
class SocketSpliceSink : public SpliceSink {
 public:
  SocketSpliceSink(CpuSystem* cpu, UdpSocket* sock) : cpu_(cpu), sock_(sock) {}

  IKDP_CTX_ANY bool StartWrite(SpliceChunk& chunk, Done done) override;

 private:
  CpuSystem* cpu_;
  UdpSocket* sock_;
  Fifo<Done> done_{8};  // in flight, oldest first (48 KB of send buffer: 6 chunks)
};

// Writes chunks into a character device (audio/video DAC); completion at the
// device's pace provides the natural-rate playback of the paper's example.
class DeviceSpliceSink : public SpliceSink {
 public:
  DeviceSpliceSink(CpuSystem* cpu, CharDevice* dev) : cpu_(cpu), dev_(dev) {}

  IKDP_CTX_ANY bool StartWrite(SpliceChunk& chunk, Done done) override;

 private:
  CpuSystem* cpu_;
  CharDevice* dev_;
};

// Reads chunks from a character device source (framebuffer scan-out).
// Bounded by a byte budget when `total_bytes` >= 0, otherwise unbounded
// (cancel to stop).  Devices may deliver short chunks (a framebuffer stops
// at frame boundaries), so the budget is tracked in bytes actually
// delivered, and exhaustion is signalled with a zero-length end-of-stream
// chunk; the source therefore reports itself unbounded to the engine.
// With `coalesce`, short device deliveries (a framebuffer stopping at a
// frame boundary, a pipe with little buffered) are accumulated until the
// chunk is full or the stream ends — required when the sink is a regular
// file, whose block map assumes chunk k carries bytes [k*B, (k+1)*B).
class DeviceSpliceSource : public SpliceSource {
 public:
  DeviceSpliceSource(CharDevice* dev, int64_t total_bytes, int64_t chunk_bytes = kBlockSize,
                     bool coalesce = false)
      : dev_(dev), remaining_(total_bytes), chunk_bytes_(chunk_bytes), coalesce_(coalesce) {}

  int64_t TotalBytes() const override { return -1; }
  int64_t ChunkBytes() const override { return chunk_bytes_; }

  IKDP_CTX_ANY bool StartRead(int64_t index, Done done) override;
  void Release(SpliceChunk& chunk) override { (void)chunk; }
  IKDP_CTX_ANY bool CancelRead() override {
    acc_ = nullptr;  // drop the partially-accumulated chunk
    done_ = nullptr;
    return dev_->CancelRead();
  }

 private:
  // Issues the next device read of an accumulating chunk.
  IKDP_CTX_ANY bool IssueRead(int64_t index, int64_t target);
  IKDP_CTX_ANY void Deliver(int64_t index);

  CharDevice* dev_;
  int64_t remaining_;  // bytes left in the budget; < 0 means unbounded
  int64_t chunk_bytes_;
  bool coalesce_;
  // The chunk in progress, filled here and published as its BufData.
  std::shared_ptr<std::vector<uint8_t>> acc_;
  bool saw_eof_ = false;   // device reported end-of-stream
  bool pending_eof_ = false;  // deliver EOF on the next StartRead
  Done done_;  // the outstanding read's completion
};

}  // namespace ikdp

#endif  // SRC_SPLICE_STREAM_ENDPOINT_H_
