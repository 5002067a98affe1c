#include "src/metrics/span_trace.h"

#include <ostream>
#include <string>
#include <utility>

#include "src/metrics/trace_export.h"

namespace ikdp {

void SpanTraceBuilder::Attach(TraceLog* log) {
  log->AddObserver([this](const TraceRecord& rec) { Observe(rec); });
}

void SpanTraceBuilder::Mint(const char* name, const TraceRecord& begin, const TraceRecord& end,
                            int64_t arg, int64_t result, bool error) {
  const SpanId id = collector_->Begin(begin.time, name, begin.span, arg);
  collector_->End(end.time, id, result, error);
  ++derived_[name];
}

void SpanTraceBuilder::Emit(const TraceRecord& begin, const TraceRecord& end) {
  switch (begin.kind) {
    case TraceKind::kSyscallEnter:
      Mint("syscall", begin, end, begin.a);
      break;
    case TraceKind::kRunnable:
      Mint("sched.runq", begin, end, begin.a);
      break;
    case TraceKind::kDiskDispatch:
      Mint("disk.xfer", begin, end, begin.a, end.b);
      break;
    case TraceKind::kSpliceRead:
      // arg = chunk index; a read its stream finished without is errored.
      Mint("splice.chunk", begin, end, begin.b, 0, end.kind == TraceKind::kSpliceDone);
      break;
    case TraceKind::kUdpSend:
      Mint("net.tx", begin, end, begin.a, end.b);
      break;
    default:
      break;  // ring ops carry their own "aio.op" spans
  }
}

void SpanTraceBuilder::Observe(const TraceRecord& rec) {
  pairer_.Observe(rec, [this](const TraceRecord& b, const TraceRecord& e) { Emit(b, e); });
  switch (rec.kind) {
    case TraceKind::kBreadHit:
      Mint("bread.hit", rec, rec, rec.a);
      break;
    case TraceKind::kBreadMiss:
      Mint("bread.miss", rec, rec, rec.a);
      break;
    case TraceKind::kGetblkSleep:
      Mint("getblk.sleep", rec, rec, rec.b);
      break;
    case TraceKind::kSpliceRefill:
      Mint("splice.refill", rec, rec, rec.b);
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
