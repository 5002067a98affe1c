#include "src/sim/trace.h"

#include <cstdio>

namespace ikdp {

const char* TraceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kDispatch:
      return "dispatch";
    case TraceKind::kSleep:
      return "sleep";
    case TraceKind::kWakeup:
      return "wakeup";
    case TraceKind::kInterrupt:
      return "interrupt";
    case TraceKind::kSyscallEnter:
      return "syscall-enter";
    case TraceKind::kSyscallExit:
      return "syscall-exit";
    case TraceKind::kSpliceStart:
      return "splice-start";
    case TraceKind::kSpliceChunk:
      return "splice-chunk";
    case TraceKind::kSpliceDone:
      return "splice-done";
    case TraceKind::kRunnable:
      return "runnable";
    case TraceKind::kSpliceRead:
      return "splice-read";
    case TraceKind::kSpliceLowWater:
      return "splice-lowwater";
    case TraceKind::kSpliceRefill:
      return "splice-refill";
    case TraceKind::kBreadHit:
      return "bread-hit";
    case TraceKind::kBreadMiss:
      return "bread-miss";
    case TraceKind::kGetblkSleep:
      return "getblk-sleep";
    case TraceKind::kDelwriFlush:
      return "delwri-flush";
    case TraceKind::kDiskEnqueue:
      return "disk-enqueue";
    case TraceKind::kDiskDispatch:
      return "disk-dispatch";
    case TraceKind::kDiskComplete:
      return "disk-complete";
    case TraceKind::kCalloutArm:
      return "callout-arm";
    case TraceKind::kSoftclockRun:
      return "softclock-run";
    case TraceKind::kRingSubmit:
      return "ring-submit";
    case TraceKind::kRingSqDepth:
      return "ring-sqdepth";
    case TraceKind::kRingOpSubmit:
      return "ring-op-submit";
    case TraceKind::kRingOpComplete:
      return "ring-op-complete";
    case TraceKind::kRingReap:
      return "ring-reap";
    case TraceKind::kRingOverflow:
      return "ring-overflow";
    case TraceKind::kRingCancel:
      return "ring-cancel";
    case TraceKind::kUdpSend:
      return "udp-send";
    case TraceKind::kUdpSent:
      return "udp-sent";
    case TraceKind::kUdpRecv:
      return "udp-recv";
    case TraceKind::kKopExec:
      return "kop-exec";
    case TraceKind::kKopDrop:
      return "kop-drop";
    case TraceKind::kKopReject:
      return "kop-reject";
  }
  return "?";
}

void TraceLog::AddObserver(Observer obs) { observers_.push_back(std::move(obs)); }

void TraceLog::Dump(std::ostream& os) const {
  char line[160];
  for (const TraceRecord& r : Snapshot()) {
    std::snprintf(line, sizeof(line), "%12.6fs %-14s a=%-8lld b=%-8lld %s\n",
                  ToSeconds(r.time), TraceKindName(r.kind), static_cast<long long>(r.a),
                  static_cast<long long>(r.b), r.tag);
    os << line;
  }
}

}  // namespace ikdp
