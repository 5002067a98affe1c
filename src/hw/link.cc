#include "src/hw/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ikdp {

LinkParams EthernetParams() {
  LinkParams p;
  p.name = "ether10";
  p.bandwidth_bps = 10e6 / 8;  // 10 Mbit/s expressed in bytes/s
  p.propagation_delay = Microseconds(50);
  p.per_frame_overhead_bytes = 34;
  p.tx_queue_frames = 64;
  return p;
}

LinkParams LoopbackParams() {
  LinkParams p;
  p.name = "lo0";
  p.bandwidth_bps = 400e6;
  p.propagation_delay = Microseconds(1);
  p.per_frame_overhead_bytes = 0;
  p.mtu_bytes = 1 << 20;
  p.tx_queue_frames = 256;
  return p;
}

NetworkLink::NetworkLink(Simulator* sim, LinkParams params)
    : sim_(sim), params_(std::move(params)) {}

bool NetworkLink::Send(int64_t payload_bytes, Deliver deliver, EventFn on_sent) {
  assert(payload_bytes >= 0);
  if (queued_ >= params_.tx_queue_frames) {
    ++stats_.frames_dropped;
    return false;
  }
  queue_.push_back(Frame{payload_bytes, std::move(deliver), std::move(on_sent)});
  ++queued_;
  if (!busy_) {
    StartNext();
  }
  return true;
}

void NetworkLink::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Frame frame = queue_.pop_front();
  --queued_;
  const int64_t fragments = std::max<int64_t>(
      1, (frame.payload_bytes + params_.mtu_bytes - 1) / params_.mtu_bytes);
  const int64_t wire_bytes =
      frame.payload_bytes + fragments * params_.per_frame_overhead_bytes;
  const SimDuration tx = TransferTime(wire_bytes, params_.bandwidth_bps);
  stats_.busy_time += tx;
  ++stats_.frames_sent;
  stats_.payload_bytes += frame.payload_bytes;
  // Fault plan: the sender's interface always does its job (on_sent fires,
  // the wire stays busy for `tx`), but the delivery may be lost outright or
  // stretched by jitter — UDP loss semantics, invisible to the transmitter.
  bool lost = false;
  SimDuration jitter = 0;
  if (fault_state_ != nullptr) {
    FaultState& fs = *fault_state_;
    if (fs.plan.loss_rate > 0.0 && fs.rng.NextDouble() < fs.plan.loss_rate) {
      lost = true;
      ++stats_.frames_lost;
    } else if (fs.plan.jitter_rate > 0.0 && fs.plan.jitter_max > 0 &&
               fs.rng.NextDouble() < fs.plan.jitter_rate) {
      jitter = static_cast<SimDuration>(fs.rng.Below(
          static_cast<uint64_t>(fs.plan.jitter_max) + 1));
      ++stats_.frames_jittered;
    }
  }
  // The transmitter frees after `tx`; the receiver sees the datagram after
  // `tx + propagation` (+ any injected jitter), or never.
  tx_on_sent_ = std::move(frame.on_sent);
  sim_->After(tx, [this] { FinishTx(); });
  if (!lost) {
    Frame* slot = arriving_.Acquire();
    *slot = std::move(frame);
    sim_->After(tx + params_.propagation_delay + jitter, [this, slot] { Arrive(slot); });
  }
}

void NetworkLink::FinishTx() {
  EventFn on_sent = std::move(tx_on_sent_);
  if (on_sent) {
    on_sent();
  }
  StartNext();
}

void NetworkLink::Arrive(Frame* slot) {
  Frame frame = std::move(*slot);
  arriving_.Release(slot);
  if (frame.deliver) {
    frame.deliver(frame.payload_bytes);
  }
}

}  // namespace ikdp
