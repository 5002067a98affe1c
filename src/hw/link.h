// A point-to-point network link with bandwidth and propagation delay.
//
// Used by the UDP socket layer (src/net) to carry datagrams between two
// simulated hosts (or as a loopback).  The link serializes frames at the
// configured bandwidth and delivers each after the propagation delay; frames
// queue behind one another as on a real wire.  A finite transmit queue drops
// excess frames, which lets tests exercise UDP loss behaviour.

#ifndef SRC_HW_LINK_H_
#define SRC_HW_LINK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/hw/fault.h"
#include "src/kern/ctx.h"
#include "src/sim/fifo.h"
#include "src/sim/inline_fn.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/slot_pool.h"
#include "src/sim/time.h"

namespace ikdp {

struct LinkParams {
  std::string name = "ether";
  double bandwidth_bps = 10e6 / 8;  // bytes/s on the wire (10 Mbit/s Ethernet)
  SimDuration propagation_delay = Microseconds(50);
  int per_frame_overhead_bytes = 34;  // preamble + MAC header + CRC + gap
  int mtu_bytes = 1480;               // payload per wire fragment
  int tx_queue_frames = 64;           // frames queued beyond the one in flight
};

// A 10 Mbit/s Ethernet segment, the paper-era campus network.
LinkParams EthernetParams();

// A loopback "link": high bandwidth, negligible delay.
LinkParams LoopbackParams();

class NetworkLink {
 public:
  using Deliver = InlineFn<void(int64_t frame_bytes)>;

  NetworkLink(Simulator* sim, LinkParams params);

  NetworkLink(const NetworkLink&) = delete;
  NetworkLink& operator=(const NetworkLink&) = delete;

  // Transmits a datagram of `payload_bytes` (fragmented into MTU-sized wire
  // frames, each paying the per-frame overhead); `deliver` fires at the
  // receiver once it has fully arrived, `on_sent` (optional) at the sender
  // once it has left the interface.  Returns false (and drops the datagram)
  // if the transmit queue is full.  Neither callback is ever invoked from
  // inside Send.
  IKDP_CTX_ANY bool Send(int64_t payload_bytes, Deliver deliver, EventFn on_sent = nullptr);

  const LinkParams& params() const { return params_; }
  bool Idle() const { return !busy_ && queued_ == 0; }

  // True when the transmit queue can take one more frame; a Send issued now
  // will be accepted.  Senders check this BEFORE paying protocol-processing
  // costs so a full interface backpressures instead of burning CPU.
  bool HasTxRoom() const { return queued_ < params_.tx_queue_frames; }

  // Probabilistic loss and delivery jitter (src/hw/fault.h).  A plan with
  // every knob off clears the state: no RNG is drawn, behaviour identical
  // to the fault-free link.
  void SetFaultPlan(const LinkFaultPlan& plan) {
    fault_state_ = plan.Enabled() ? std::make_unique<FaultState>(plan) : nullptr;
  }

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_dropped = 0;  // transmit-queue overflow (sender-visible)
    uint64_t frames_lost = 0;     // lost on the wire by the fault plan
    uint64_t frames_jittered = 0; // deliveries delayed by the fault plan
    int64_t payload_bytes = 0;
    SimDuration busy_time = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Frame {
    int64_t payload_bytes = 0;
    Deliver deliver;
    EventFn on_sent;
  };

  struct FaultState {
    explicit FaultState(const LinkFaultPlan& p) : plan(p), rng(p.seed) {}
    LinkFaultPlan plan;
    Rng rng;
  };

  void StartNext();
  // The frame on the wire has left the interface.
  void FinishTx();
  // The frame propagating in arrival slot `slot` reaches the receiver.
  void Arrive(Frame* slot);

  Simulator* sim_;
  LinkParams params_;
  Fifo<Frame> queue_;
  // The sender callback of the frame on the wire.
  EventFn tx_on_sent_;
  // Frames propagating to the receiver (several at once, and reordered by
  // jitter) in recycled slots, so the events that deliver them carry the
  // slot's address instead of the callback.
  SlotPool<Frame> arriving_;
  int queued_ = 0;
  bool busy_ = false;
  std::unique_ptr<FaultState> fault_state_;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_HW_LINK_H_
