#include "src/hw/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace ikdp {

DiskParams Rz56Params() {
  DiskParams p;
  p.name = "RZ56";
  p.capacity_bytes = 665ll * 1000 * 1000;
  // 15 data surfaces, 54 sectors/track, 512 B sectors -> ~414 KB/cylinder.
  p.bytes_per_cylinder = 15 * 54 * 512;
  p.min_seek = MillisecondsF(4.0);
  p.avg_seek = Milliseconds(16);
  p.max_seek = Milliseconds(35);
  p.avg_rotational_latency = MillisecondsF(8.3);  // 3600 RPM
  p.media_rate_bps = 1.66e6;
  // The DECstation 5000/200's SII SCSI controller ran asynchronous SCSI at
  // ~1.4 MB/s, which bounds cache-hit bursts well below the drive's
  // electronics.
  p.bus_rate_bps = 1.4e6;
  p.cache_bytes = 64 * 1024;
  p.cache_segments = 1;
  p.controller_overhead = MillisecondsF(1.0);
  return p;
}

DiskParams Rz58Params() {
  DiskParams p;
  p.name = "RZ58";
  p.capacity_bytes = 1380ll * 1000 * 1000;
  p.bytes_per_cylinder = 15 * 85 * 512;
  p.min_seek = MillisecondsF(2.5);
  p.avg_seek = MillisecondsF(12.5);
  p.max_seek = Milliseconds(28);
  p.avg_rotational_latency = MillisecondsF(5.6);  // 5400 RPM
  p.media_rate_bps = 2.7e6;
  // Async SII controller bound (the RZ58 supports 4 MB/s synchronous SCSI,
  // but the 5000/200's controller cannot drive it).
  p.bus_rate_bps = 1.5e6;
  p.cache_bytes = 256 * 1024;
  p.cache_segments = 4;
  p.controller_overhead = MillisecondsF(0.8);
  return p;
}

DiskModel::DiskModel(Simulator* sim, DiskParams params) : sim_(sim), params_(std::move(params)) {}

void DiskModel::SetFaultPlan(const DiskFaultPlan& plan) {
  fault_state_ = plan.Enabled() ? std::make_unique<FaultState>(plan) : nullptr;
}

int DiskModel::EvaluatePlanFault(const DiskRequest& r) {
  if (fault_state_ == nullptr) {
    return 0;
  }
  FaultState& fs = *fault_state_;
  if (fs.plan.permanent && fs.bad_offsets.count(r.offset) > 0) {
    return kErrIo;  // grown defect: the sector stays bad
  }
  const double rate = r.is_read ? fs.plan.read_error_rate : fs.plan.write_error_rate;
  if (rate > 0.0 && fs.rng.NextDouble() < rate) {
    if (fs.plan.permanent) {
      fs.bad_offsets.insert(r.offset);
    }
    return kErrIo;
  }
  if (!r.is_read && fs.plan.write_byte_budget >= 0) {
    if (fs.bytes_written + r.nbytes > fs.plan.write_byte_budget) {
      return kErrNoSpc;  // budget exhausted: device full
    }
    fs.bytes_written += r.nbytes;
  }
  return 0;
}

void DiskModel::Submit(DiskRequest req) {
  assert(req.nbytes > 0);
  assert(req.offset >= 0 && req.offset + req.nbytes <= params_.capacity_bytes);
  queue_.push_back(std::move(req));
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, QueueDepth());
  if (!busy_) {
    StartNext();
  }
}

void DiskModel::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  ++transfer_serial_;
  current_ = queue_.pop_front();
  const DiskRequest& r = current_;
  if (r.is_read) {
    ++stats_.reads;
    stats_.bytes_read += r.nbytes;
  } else {
    ++stats_.writes;
    stats_.bytes_written += r.nbytes;
  }
  int error = 0;
  if (fault_hook_ && fault_hook_(r.offset, r.is_read)) {
    error = kErrIo;
  } else {
    error = EvaluatePlanFault(r);
  }
  if (error != 0) {
    ++stats_.errors;
    if (error == kErrNoSpc) {
      ++stats_.enospc_errors;
    } else if (fault_state_ != nullptr && fault_state_->plan.permanent) {
      ++stats_.faults_permanent;
    } else {
      // Hook-injected faults have no permanence semantics; they count as
      // transient alongside plan errors in transient mode.
      ++stats_.faults_transient;
    }
  }
  current_error_ = error;

  SimDuration service = ServiceTime(r.offset, r.nbytes, r.is_read);
  if (fault_state_ != nullptr && fault_state_->plan.spike_rate > 0.0 &&
      fault_state_->rng.NextDouble() < fault_state_->plan.spike_rate) {
    // A firmware-level retry or recalibration stalls the transfer.
    service += fault_state_->plan.spike_delay;
    ++stats_.latency_spikes;
  }
  stats_.busy_time += service;
  if (trace_ != nullptr) {
    KspanScope scope("disk", r.span);
    trace_->Record(sim_->Now(), TraceKind::kDiskDispatch, transfer_serial_, r.nbytes,
                   params_.name.c_str());
  }
  sim_->After(service, [this] { Finish(); });
}

void DiskModel::Finish() {
  if (trace_ != nullptr) {
    KspanScope scope("disk", current_.span);
    trace_->Record(sim_->Now(), TraceKind::kDiskComplete, transfer_serial_, current_.nbytes,
                   params_.name.c_str());
  }
  last_error_ = current_error_;
  if (current_.done) {
    KspanScope scope("disk", current_.span);
    InlineFn<void(bool)> done = std::move(current_.done);
    done(current_error_ == 0);
  }
  // Still busy_ during the callback: a request it submitted queues behind
  // this one and starts here.
  StartNext();
}

SimDuration DiskModel::SeekTime(int64_t from_cyl, int64_t to_cyl) {
  const int64_t dist = std::abs(to_cyl - from_cyl);
  if (dist == 0) {
    return 0;
  }
  ++stats_.seeks;
  const double frac = static_cast<double>(dist) / static_cast<double>(params_.Cylinders());
  const double span = static_cast<double>(params_.max_seek - params_.min_seek);
  return params_.min_seek + static_cast<SimDuration>(span * std::sqrt(frac));
}

int64_t DiskModel::Frontier(const Segment& seg, SimTime now) const {
  const double elapsed = ToSeconds(now - seg.fill_start_time);
  const int64_t filled =
      seg.fill_start_pos + static_cast<int64_t>(elapsed * params_.media_rate_bps);
  return std::min(filled, seg.limit);
}

DiskModel::Segment* DiskModel::FindSegment(int64_t offset, int64_t nbytes) {
  for (auto it = segments_.begin(); it != segments_.end(); ++it) {
    if (offset >= it->start && offset + nbytes <= it->limit) {
      // Move to front (most recently used).
      segments_.splice(segments_.begin(), segments_, it);
      return &segments_.front();
    }
  }
  return nullptr;
}

void DiskModel::StartSegment(int64_t pos, SimTime t) {
  const int64_t seg_bytes = params_.SegmentBytes();
  if (seg_bytes <= 0) {
    return;
  }
  Segment seg;
  seg.start = pos;
  seg.limit = std::min(pos + seg_bytes, params_.capacity_bytes);
  seg.fill_start_pos = pos;
  seg.fill_start_time = t;
  segments_.push_front(seg);
  while (static_cast<int>(segments_.size()) > params_.cache_segments) {
    segments_.pop_back();
  }
}

SimDuration DiskModel::ServiceTime(int64_t offset, int64_t nbytes, bool is_read) {
  const SimTime now = sim_->Now();
  SimDuration t = params_.controller_overhead;

  if (is_read) {
    if (Segment* seg = FindSegment(offset, nbytes)) {
      // Cache segment hit.  Wait for the background prefetch to cover the
      // transfer, then burst it over the bus.
      ++stats_.read_cache_hits;
      const int64_t frontier = Frontier(*seg, now);
      const int64_t need_end = offset + nbytes;
      if (need_end > frontier) {
        t += TransferTime(need_end - frontier, params_.media_rate_bps);
      }
      t += TransferTime(nbytes, params_.bus_rate_bps);
      return t;
    }
  }

  // Media access: seek + rotation + transfer.
  const int64_t cyl = params_.bytes_per_cylinder > 0 ? offset / params_.bytes_per_cylinder : 0;
  t += SeekTime(head_cylinder_, cyl);
  head_cylinder_ = cyl;
  if (offset != last_end_offset_) {
    t += params_.avg_rotational_latency;
  }
  t += TransferTime(nbytes, params_.media_rate_bps);
  last_end_offset_ = offset + nbytes;

  if (is_read) {
    // The drive keeps prefetching past the transfer into a cache segment.
    StartSegment(offset + nbytes, now + t);
  } else {
    // A write through a region invalidates overlapping read-ahead state.
    for (auto it = segments_.begin(); it != segments_.end();) {
      const bool overlap = offset < it->limit && offset + nbytes > it->start;
      it = overlap ? segments_.erase(it) : std::next(it);
    }
  }
  return t;
}

}  // namespace ikdp
