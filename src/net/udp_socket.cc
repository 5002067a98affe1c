#include "src/net/udp_socket.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/sim_state.h"

namespace ikdp {

UdpSocket::UdpSocket(CpuSystem* cpu, int64_t sndbuf_bytes, int64_t rcvbuf_bytes)
    : cpu_(cpu), sndbuf_bytes_(sndbuf_bytes), rcvbuf_bytes_(rcvbuf_bytes) {}

void UdpSocket::ConnectTo(UdpSocket* peer, NetworkLink* link) {
  peer_ = peer;
  link_ = link;
}

bool UdpSocket::SendAsync(BufData data, int64_t nbytes, EventFn done) {
  assert(nbytes >= 0);  // zero-length datagrams are legal UDP (end-of-stream marker)
  if (peer_ == nullptr || link_ == nullptr) {
    return false;
  }
  if (snd_inflight_ + nbytes > sndbuf_bytes_) {
    return false;
  }
  // Refuse a full interface BEFORE paying protocol processing: a splice
  // sink retrying off the softclock would otherwise burn a full output-path
  // charge per refusal — a busy-wait dressed up as flow control — instead
  // of backpressuring at (almost) no CPU cost.
  if (!link_->HasTxRoom()) {
    ++stats_.dgrams_dropped_wire;
    return false;
  }
  // Output protocol processing runs in the sender's context; charge it when
  // that context is an interrupt (splice handlers).  Process-context sends
  // are charged by the syscall layer.
  if (cpu_->InInterrupt()) {
    cpu_->ChargeInterrupt(cpu_->costs().UdpPacketTime(nbytes));
  }
  UdpSocket* peer = peer_;
  // The sender's kspan rides the wire: the leave-interface and delivery
  // events attribute to the request that queued the datagram, however long
  // the propagation delay defers them.
  const SpanId span = CurrentKspan().span;
  // One serial per accepted SendAsync, counted per run (SimState), so
  // kUdpSend/kUdpSent/kUdpRecv records pair across sockets within one trace
  // log and a run's serials do not depend on what ran before it.
  uint64_t& last_serial = CurrentSimState().datagram_serial;
  const uint64_t serial = last_serial + 1;
  // The wire carries the sender's data area itself.  A sender that reuses
  // its buffer once `done` fires (before the propagation delay has elapsed)
  // writes through MakeWritable, which clones the area while this datagram
  // still holds it.  Only a payload shorter than `nbytes`, or none, is
  // copied, zero-padded.
  if (data == nullptr || static_cast<int64_t>(data->size()) < nbytes) {
    auto padded = std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(nbytes), 0);
    if (data != nullptr) {
      std::copy(data->begin(), data->end(), padded->begin());
    }
    data = std::move(padded);
  }
  // Both closures fit InlineFn's inline storage: the delivery carries the
  // datagram, the leave-interface event only the socket (the rest waits in
  // tx_pending_).
  auto deliver = [peer, data = std::move(data), nbytes, span, serial](int64_t) mutable {
    KspanScope scope("net", span);
    peer->Deliver(std::move(data), nbytes, serial);
  };
  static_assert(NetworkLink::Deliver::kStoresInline<decltype(deliver)>);
  const bool accepted =
      link_->Send(nbytes, std::move(deliver), [this, serial] { OnSent(serial); });
  if (!accepted) {
    ++stats_.dgrams_dropped_wire;
    return false;
  }
  tx_pending_.push_back(TxPending{std::move(done), nbytes, span, serial});
  last_serial = serial;
  if (TraceLog* t = cpu_->trace()) {
    t->Record(cpu_->sim()->Now(), TraceKind::kUdpSend, static_cast<int64_t>(serial), nbytes);
  }
  snd_inflight_ += nbytes;
  ++stats_.dgrams_sent;
  stats_.bytes_sent += nbytes;
  return true;
}

void UdpSocket::OnSent(uint64_t serial) {
  TxPending tx = tx_pending_.pop_front();
  assert(tx.serial == serial);
  (void)serial;
  KspanScope scope("net", tx.span);
  if (TraceLog* t = cpu_->trace()) {
    t->Record(cpu_->sim()->Now(), TraceKind::kUdpSent, static_cast<int64_t>(tx.serial),
              tx.nbytes);
  }
  snd_inflight_ -= tx.nbytes;
  cpu_->Wakeup(SendChannel());
  if (tx.done) {
    tx.done();
  }
}

void UdpSocket::Deliver(BufData data, int64_t nbytes, uint64_t serial) {
  // Input side: network interrupt + protocol processing + checksum.  The
  // caller (the link delivery lambda) has pushed the sender's span, so the
  // raise-time capture attributes this interrupt to the sending request.
  cpu_->RunInterrupt(
      cpu_->costs().interrupt_overhead + cpu_->costs().UdpPacketTime(nbytes),
      [this, data = std::move(data), nbytes, serial]() mutable {
        if (rcv_queued_bytes_ + nbytes > rcvbuf_bytes_) {
          ++stats_.dgrams_dropped_rcvbuf;
          return;
        }
        rcv_queue_.push_back(Datagram{std::move(data), nbytes});
        rcv_queued_bytes_ += nbytes;
        ++stats_.dgrams_received;
        stats_.bytes_received += nbytes;
        if (TraceLog* t = cpu_->trace()) {
          t->Record(cpu_->sim()->Now(), TraceKind::kUdpRecv, static_cast<int64_t>(serial),
                    nbytes);
        }
        TryCompleteRecv();
        cpu_->Wakeup(RecvChannel());
      });
}

bool UdpSocket::CancelRecv() {
  if (!recv_done_) {
    return false;
  }
  // Drop the parked receive; its callback never fires.  Queued datagrams
  // stay in the receive buffer for any future reader.
  recv_done_ = nullptr;
  recv_max_ = 0;
  return true;
}

bool UdpSocket::RecvAsync(int64_t max_bytes, RecvDone done) {
  assert(done && "an empty callback would read as no receive pending");
  if (recv_done_ || max_bytes <= 0) {
    return false;
  }
  recv_max_ = max_bytes;
  recv_done_ = std::move(done);
  TryCompleteRecv();
  return true;
}

void UdpSocket::TryCompleteRecv() {
  if (!recv_done_ || rcv_queue_.empty()) {
    return;
  }
  Datagram d = rcv_queue_.pop_front();
  rcv_queued_bytes_ -= d.nbytes;
  const int64_t n = std::min(d.nbytes, recv_max_);  // truncation, UDP-style
  RecvDone done = std::move(recv_done_);
  done(std::move(d.data), n);
}

}  // namespace ikdp
