#include "perfbench/bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/dev/disk_driver.h"
#include "src/fs/filesystem.h"

namespace perfbench {

using ikdp::CpuSystem;
using ikdp::SimDuration;
using ikdp::TraceKind;
using ikdp::TraceRecord;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

size_t Beyond(size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  return n - std::max<size_t>(1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double Metrics::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) {
      return item.second.first;
    }
  }
  return 0;
}

void Checks::Check(const std::string& what, bool ok) {
  for (auto& gate : gates_) {
    if (gate.first == what) {
      gate.second = gate.second && ok;
      return;
    }
  }
  gates_.push_back({what, ok});
}

uint64_t Checks::failed() const {
  uint64_t n = 0;
  for (const auto& gate : gates_) {
    n += gate.second ? 0 : 1;
  }
  return n;
}

void Digest::Add(int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(double v) {
  int64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void IntervalRecorder::Attach(ikdp::TraceLog* log) {
  log->AddObserver([this](const TraceRecord& r) { Observe(r); });
}

void IntervalRecorder::Observe(const TraceRecord& r) {
  switch (r.kind) {
    case TraceKind::kRunnable:
      runnable_[r.a] = r.time;
      break;
    case TraceKind::kDispatch:
      if (auto it = runnable_.find(r.a); it != runnable_.end()) {
        runq_us.push_back(static_cast<double>(r.time - it->second) / 1e3);
        runnable_.erase(it);
      }
      break;
    case TraceKind::kSyscallEnter:
      syscalls_[r.a] = {r.time, r.tag};
      break;
    case TraceKind::kSyscallExit:
      if (auto it = syscalls_.find(r.a); it != syscalls_.end()) {
        syscall_us[it->second.second].push_back(static_cast<double>(r.time - it->second.first) /
                                                1e3);
        syscalls_.erase(it);
      }
      break;
    case TraceKind::kDiskDispatch:
      disk_[{r.tag, r.a}] = r.time;
      break;
    case TraceKind::kDiskComplete:
      if (auto it = disk_.find({r.tag, r.a}); it != disk_.end()) {
        disk_ms.push_back(static_cast<double>(r.time - it->second) / 1e6);
        disk_.erase(it);
      }
      break;
    case TraceKind::kSpliceRead:
      reads_[{r.a, r.b}] = r.time;
      break;
    case TraceKind::kSpliceChunk:
      if (auto it = reads_.find({r.a, r.b}); it != reads_.end()) {
        chunk_us.push_back(static_cast<double>(r.time - it->second) / 1e3);
        reads_.erase(it);
      }
      break;
    default:
      break;
  }
}

MachineTrace::MachineTrace() {
  telemetry.Attach(&log);
  intervals.Attach(&log);
}

namespace {

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

void Layers::AddKernel(ikdp::Kernel& k, MachineTrace& t, SimDuration elapsed) {
  const CpuSystem::Stats& cpu = k.cpu().stats();
  switches += cpu.switches;
  interrupts += cpu.interrupts;
  AddAttribution(k.cpu().attribution());

  ikdp::MetricsRegistry& reg = t.registry;
  ikdp::CaptureKernelCounters(&reg, k);
  hits += static_cast<uint64_t>(reg.GetCounter("cache.hits"));
  misses += static_cast<uint64_t>(reg.GetCounter("cache.misses"));
  delwri_flushes += static_cast<uint64_t>(reg.GetCounter("cache.delwri_flushes"));
  transient_allocs += static_cast<uint64_t>(reg.GetCounter("cache.transient_allocs"));
  syscalls += static_cast<uint64_t>(reg.GetCounter("sys.syscalls"));

  bool has_disks = false;
  for (ikdp::FileSystem* fs : k.Mounts()) {
    auto* drv = dynamic_cast<ikdp::DiskDriver*>(fs->dev());
    if (drv == nullptr) {
      continue;  // RAM disks have no mechanism to be busy
    }
    has_disks = true;
    const std::string prefix = "disk." + fs->name() + ".";
    const SimDuration busy = reg.GetCounter(prefix + "busy_time_ns");
    (fs->name() == "srcfs" ? busy_src_ns : busy_dst_ns) += busy;
    max_queue_depth = std::max<uint64_t>(
        max_queue_depth, static_cast<uint64_t>(reg.GetCounter(prefix + "max_queue_depth")));
    coalesced += static_cast<uint64_t>(reg.GetCounter(prefix + "coalesced"));
  }
  if (has_disks) {
    disk_elapsed_ns += elapsed;
  }

  Append(&intervals.runq_us, t.intervals.runq_us);
  Append(&intervals.disk_ms, t.intervals.disk_ms);
  Append(&intervals.chunk_us, t.intervals.chunk_us);
  for (const auto& [name, v] : t.intervals.syscall_us) {
    Append(&intervals.syscall_us[name], v);
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (name == "cpu.runq_wait" || name == "splice.chunk_latency" ||
        StartsWith(name, "syscall.latency.") || StartsWith(name, "disk.service_time.")) {
      telemetry_intervals += h.count();
    }
  }
}

void Layers::AddAttribution(const std::map<CpuSystem::ChargeKey, SimDuration>& a) {
  for (const auto& [key, ns] : a) {
    switch (key.bucket) {
      case CpuSystem::ChargeBucket::kProcess:
      case CpuSystem::ChargeBucket::kKopProcess:
        process_ns += ns;
        break;
      case CpuSystem::ChargeBucket::kSwitch:
        switch_ns += ns;
        break;
      case CpuSystem::ChargeBucket::kInterrupt:
      case CpuSystem::ChargeBucket::kKopInterrupt:
        interrupt_ns += ns;
        if (std::strcmp(key.subsystem, "net") == 0) {
          net_interrupt_ns += ns;
        }
        break;
      case CpuSystem::ChargeBucket::kSoftclock:
      case CpuSystem::ChargeBucket::kKopSoftclock:
        softclock_ns += ns;
        break;
    }
  }
}

void Layers::AddSpans(const ikdp::KspanCollector& spans) {
  for (const ikdp::SpanRecord& s : spans.spans()) {
    if (s.open()) {
      continue;
    }
    const double ms = static_cast<double>(s.end - s.start) / 1e6;
    if (std::strcmp(s.name, "splice.stream") == 0) {
      stream_ms.push_back(ms);
      const ikdp::SpanRecord* root = spans.Find(spans.RootOf(s.id));
      if (root != nullptr && root->id != s.id && std::strcmp(root->name, "server.request") == 0) {
        wait_ms.push_back(static_cast<double>(s.start - root->start) / 1e6);
      }
    } else if (std::strcmp(s.name, "aio.op") == 0) {
      aio_ms.push_back(ms);
    }
  }
}

uint64_t Layers::ExactIntervals() const {
  uint64_t n = intervals.runq_us.size() + intervals.disk_ms.size() + intervals.chunk_us.size();
  for (const auto& [name, v] : intervals.syscall_us) {
    n += v.size();
  }
  return n;
}

void Layers::Report(Metrics* out) const {
  auto ms = [](SimDuration ns) { return static_cast<double>(ns) / 1e6; };
  auto syscall_p99 = [this](const char* name) {
    const auto it = intervals.syscall_us.find(name);
    return it == intervals.syscall_us.end() ? 0.0 : Percentile(it->second, 0.99);
  };
  const double elapsed = static_cast<double>(disk_elapsed_ns);

  out->Set("kern.switches", static_cast<double>(switches), "count");
  out->Set("kern.interrupts", static_cast<double>(interrupts), "count");
  out->Set("kern.runq_wait_p99_us", Percentile(intervals.runq_us, 0.99), "sim_us");
  out->Set("kern.process_ms", ms(process_ns), "sim_ms");
  out->Set("kern.switch_ms", ms(switch_ns), "sim_ms");
  out->Set("kern.interrupt_ms", ms(interrupt_ns), "sim_ms");
  out->Set("kern.softclock_ms", ms(softclock_ns), "sim_ms");
  out->Set("kern.lock_acquisitions", static_cast<double>(lock_acquisitions), "count");

  out->Set("buf.hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
           "ratio");
  out->Set("buf.hits", static_cast<double>(hits), "count");
  out->Set("buf.misses", static_cast<double>(misses), "count");
  out->Set("buf.delwri_flushes", static_cast<double>(delwri_flushes), "count");
  out->Set("buf.transient_allocs", static_cast<double>(transient_allocs), "count");

  out->Set("dev.disk_busy_frac.src", elapsed > 0 ? static_cast<double>(busy_src_ns) / elapsed : 0,
           "ratio");
  out->Set("dev.disk_busy_frac.dst", elapsed > 0 ? static_cast<double>(busy_dst_ns) / elapsed : 0,
           "ratio");
  out->Set("dev.disk_service_p50_ms", Percentile(intervals.disk_ms, 0.5), "sim_ms");
  out->Set("dev.disk_max_queue_depth", static_cast<double>(max_queue_depth), "count");
  out->Set("dev.disk_coalesced", static_cast<double>(coalesced), "count");

  out->Set("splice.chunk_p50_us", Percentile(intervals.chunk_us, 0.5), "sim_us");
  out->Set("splice.chunk_p99_us", Percentile(intervals.chunk_us, 0.99), "sim_us");
  out->Set("splice.wait_p99_ms", Percentile(wait_ms, 0.99), "sim_ms");
  out->Set("splice.stream_p99_ms", Percentile(stream_ms, 0.99), "sim_ms");

  out->Set("aio.op_p99_ms", Percentile(aio_ms, 0.99), "sim_ms");

  const double mb = static_cast<double>(bytes) / (1 << 20);
  out->Set("os.syscalls", static_cast<double>(syscalls), "count");
  out->Set("os.traps_per_mb", mb > 0 ? static_cast<double>(syscalls) / mb : 0, "1/MB");
  out->Set("os.syscall_p99_us.read", syscall_p99("read"), "sim_us");
  out->Set("os.syscall_p99_us.write", syscall_p99("write"), "sim_us");
  out->Set("os.syscall_p99_us.splice", syscall_p99("splice"), "sim_us");

  out->Set("net.datagrams", static_cast<double>(datagrams), "count");
  out->Set("net.interrupt_ms", ms(net_interrupt_ns), "sim_ms");
}

}  // namespace perfbench
