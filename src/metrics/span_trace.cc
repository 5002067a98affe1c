#include "src/metrics/span_trace.h"

#include <ostream>
#include <string>

#include "src/metrics/trace_export.h"

namespace ikdp {

void SpanTraceBuilder::Attach(TraceLog* log) {
  log->AddObserver([this](const TraceRecord& rec) { Observe(rec); });
}

void SpanTraceBuilder::Emit(const char* name, const Pending& p, SimTime end, int64_t arg,
                            int64_t result, bool error) {
  const SpanId id = collector_->Begin(p.start, name, p.parent, arg);
  collector_->End(end, id, result, error);
  ++derived_[name];
}

void SpanTraceBuilder::Point(const char* name, SimTime t, SpanId parent, int64_t arg) {
  const SpanId id = collector_->Begin(t, name, parent, arg);
  collector_->End(t, id);
  ++derived_[name];
}

void SpanTraceBuilder::Observe(const TraceRecord& rec) {
  switch (rec.kind) {
    case TraceKind::kSyscallEnter:
      syscalls_[rec.a] = {rec.time, rec.span};
      break;
    case TraceKind::kSyscallExit: {
      auto it = syscalls_.find(rec.a);
      if (it != syscalls_.end()) {
        Emit("syscall", it->second, rec.time, rec.a, 0, false);
        syscalls_.erase(it);
      }
      break;
    }
    case TraceKind::kRunnable:
      runnable_[rec.a] = {rec.time, rec.span};
      break;
    case TraceKind::kDispatch: {
      auto it = runnable_.find(rec.a);
      if (it != runnable_.end()) {
        Emit("sched.runq", it->second, rec.time, rec.a, 0, false);
        runnable_.erase(it);
      }
      break;
    }
    case TraceKind::kDiskDispatch:
      disk_[{rec.tag, rec.a}] = {rec.time, rec.span};
      break;
    case TraceKind::kDiskComplete: {
      auto it = disk_.find({rec.tag, rec.a});
      if (it != disk_.end()) {
        Emit("disk.xfer", it->second, rec.time, rec.a, rec.b, false);
        disk_.erase(it);
      }
      break;
    }
    case TraceKind::kSpliceRead:
      splice_reads_[{rec.a, rec.b}] = {rec.time, rec.span};
      break;
    case TraceKind::kSpliceChunk: {
      auto it = splice_reads_.find({rec.a, rec.b});
      if (it != splice_reads_.end()) {
        Emit("splice.chunk", it->second, rec.time, rec.b, 0, false);
        splice_reads_.erase(it);
      }
      break;
    }
    case TraceKind::kSpliceReadAbort: {
      // Teardown retracted this descriptor's outstanding reads: their
      // kSpliceChunk will never arrive.  Close every open read interval for
      // the serial as an errored span so the tree stays balanced.
      for (auto it = splice_reads_.begin(); it != splice_reads_.end();) {
        if (it->first.first == rec.a) {
          Emit("splice.chunk", it->second, rec.time, it->first.second, 0, true);
          it = splice_reads_.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
    case TraceKind::kUdpSend:
      udp_tx_[rec.a] = {rec.time, rec.span};
      break;
    case TraceKind::kUdpSent: {
      auto it = udp_tx_.find(rec.a);
      if (it != udp_tx_.end()) {
        Emit("net.tx", it->second, rec.time, rec.a, rec.b, false);
        udp_tx_.erase(it);
      }
      break;
    }
    case TraceKind::kBreadHit:
      Point("bread.hit", rec.time, rec.span, rec.a);
      break;
    case TraceKind::kBreadMiss:
      Point("bread.miss", rec.time, rec.span, rec.a);
      break;
    case TraceKind::kGetblkSleep:
      Point("getblk.sleep", rec.time, rec.span, rec.b);
      break;
    case TraceKind::kSpliceRefill:
      Point("splice.refill", rec.time, rec.span, rec.b);
      break;
    default:
      break;
  }
}

const char* ChargeBucketName(CpuSystem::ChargeBucket b) {
  switch (b) {
    case CpuSystem::ChargeBucket::kProcess:
      return "process";
    case CpuSystem::ChargeBucket::kSwitch:
      return "switch";
    case CpuSystem::ChargeBucket::kInterrupt:
      return "interrupt";
    case CpuSystem::ChargeBucket::kSoftclock:
      return "softclock";
    case CpuSystem::ChargeBucket::kKopProcess:
      return "kop.process";
    case CpuSystem::ChargeBucket::kKopInterrupt:
      return "kop.interrupt";
    case CpuSystem::ChargeBucket::kKopSoftclock:
      return "kop.softclock";
  }
  return "?";
}

std::vector<RequestBreakdown> BuildRequestBreakdowns(
    const KspanCollector& collector,
    const std::map<CpuSystem::ChargeKey, SimDuration>& attribution) {
  std::vector<RequestBreakdown> out;
  std::map<SpanId, size_t> slot;  // root id -> out index
  for (const SpanRecord& s : collector.spans()) {
    if (s.parent != kNoSpan) {
      continue;
    }
    RequestBreakdown r;
    r.root = s.id;
    r.name = s.name;
    r.arg = s.a;
    r.start = s.start;
    r.end = s.end;
    r.result = s.result;
    r.error = s.error;
    slot[s.id] = out.size();
    out.push_back(std::move(r));
  }
  for (const auto& [key, t] : attribution) {
    if (key.span == kNoSpan || !collector.Known(key.span)) {
      continue;
    }
    auto it = slot.find(collector.RootOf(key.span));
    if (it == slot.end()) {
      continue;
    }
    RequestBreakdown& r = out[it->second];
    const std::string subsystem = key.subsystem[0] != '\0' ? key.subsystem : "untagged";
    r.cpu[std::string(ChargeBucketName(key.bucket)) + "/" + subsystem] += t;
    r.cpu_total += t;
  }
  return out;
}

void ExportFoldedStacks(const KspanCollector& collector,
                        const std::map<CpuSystem::ChargeKey, SimDuration>& attribution,
                        std::ostream& os) {
  std::map<std::string, SimDuration> folded;
  for (const auto& [key, t] : attribution) {
    std::string path;
    if (key.span != kNoSpan && collector.Known(key.span)) {
      // Root-first span path: walk parents, then reverse by prepending.
      for (SpanId id = key.span; id != kNoSpan;) {
        const SpanRecord* s = collector.Find(id);
        if (s == nullptr) {
          break;
        }
        path = path.empty() ? std::string(s->name) : std::string(s->name) + ";" + path;
        id = s->parent;
      }
    }
    if (path.empty()) {
      path = "untracked";
    }
    path += ";";
    path += ChargeBucketName(key.bucket);
    path += ":";
    path += key.subsystem[0] != '\0' ? key.subsystem : "untagged";
    folded[path] += t;
  }
  for (const auto& [path, t] : folded) {
    if (t <= 0) {
      continue;  // a fully-refunded switch slice has no width to draw
    }
    os << path << " " << t << "\n";
  }
}

void ExportSpanChromeTrace(const KspanCollector& collector, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) {
      os << ",";
    }
    first = false;
  };
  for (const SpanRecord& s : collector.spans()) {
    // Async slices keyed by span id; Perfetto groups b/e pairs by (cat, id).
    comma();
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\"kspan\",\"ph\":\"b\",\"id\":"
       << s.id << ",\"pid\":1,\"tid\":1,\"ts\":" << s.start / 1000 << "."
       << s.start % 1000 << ",\"args\":{\"arg\":" << s.a << ",\"parent\":" << s.parent << "}}";
    if (s.open()) {
      continue;
    }
    comma();
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\"kspan\",\"ph\":\"e\",\"id\":"
       << s.id << ",\"pid\":1,\"tid\":1,\"ts\":" << s.end / 1000 << "." << s.end % 1000
       << ",\"args\":{\"result\":" << s.result << ",\"error\":" << (s.error ? "true" : "false")
       << "}}";
  }
  os << "]}\n";
}

std::string RenderSpanSections(const KspanCollector& collector,
                               const std::map<CpuSystem::ChargeKey, SimDuration>& attribution) {
  std::string out;
  out += "\"spans\":{";
  out += "\"begun\":" + std::to_string(collector.begun());
  out += ",\"ended\":" + std::to_string(collector.ended());
  out += ",\"bad_ends\":" + std::to_string(collector.bad_ends());
  out += ",\"open\":" + std::to_string(collector.open_count());
  std::map<std::string, uint64_t> census;
  for (const SpanRecord& s : collector.spans()) {
    ++census[s.name];
  }
  out += ",\"by_name\":{";
  bool first = true;
  for (const auto& [name, n] : census) {
    if (!first) {
      out += ",";
    }
    first = false;
    out.append("\"").append(JsonEscape(name)).append("\":").append(std::to_string(n));
  }
  out += "}},\n\"attribution\":[";
  first = true;
  for (const auto& [key, t] : attribution) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"bucket\":\"";
    out += ChargeBucketName(key.bucket);
    out += "\",\"subsystem\":\"";
    out += JsonEscape(key.subsystem[0] != '\0' ? key.subsystem : "untagged");
    out += "\",\"span\":" + std::to_string(key.span);
    out += ",\"ns\":" + std::to_string(t) + "}";
  }
  out += "]";
  return out;
}

}  // namespace ikdp
