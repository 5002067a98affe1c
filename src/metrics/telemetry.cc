#include "src/metrics/telemetry.h"

#include <algorithm>

#include "src/dev/disk_driver.h"
#include "src/fs/filesystem.h"
#include "src/kern/lock.h"
#include "src/sim/sim_state.h"

namespace ikdp {

TelemetryCollector::~TelemetryCollector() = default;

void TelemetryCollector::Attach(TraceLog* log) {
  log->AddObserver([this](const TraceRecord& rec) { Observe(rec); });
}

void TelemetryCollector::Sample(const TraceRecord& begin, const TraceRecord& end) {
  const SimDuration latency = end.time - begin.time;
  switch (begin.kind) {
    case TraceKind::kRunnable:
      registry_->Histogram("cpu.runq_wait")->Add(latency);
      break;
    case TraceKind::kSyscallEnter:
      registry_->Histogram(std::string("syscall.latency.") + begin.tag)->Add(latency);
      break;
    case TraceKind::kDiskDispatch:
      registry_->Histogram(std::string("disk.service_time.") + begin.tag)->Add(latency);
      break;
    case TraceKind::kSpliceRead:
      if (end.kind == TraceKind::kSpliceChunk) {
        registry_->Histogram("splice.chunk_latency")->Add(latency);
      }
      break;
    case TraceKind::kRingOpSubmit:
      registry_->Histogram("aio.completion_latency")->Add(latency);
      break;
    default:
      break;  // UDP interface occupancy has no histogram
  }
}

void TelemetryCollector::Observe(const TraceRecord& rec) {
  pairer_.Observe(rec, [this](const TraceRecord& b, const TraceRecord& e) { Sample(b, e); });
  switch (rec.kind) {
    case TraceKind::kRingSqDepth:
      registry_->Histogram("aio.sq_depth")->Add(rec.b);
      break;
    case TraceKind::kKopExec:
      // b = operator execution cost for one chunk (ns).
      registry_->Histogram("kop.exec_cost")->Add(rec.b);
      break;
    default:
      break;
  }
}

void CaptureKernelCounters(MetricsRegistry* registry, Kernel& kernel) {
  const CpuSystem::Stats& cpu = kernel.cpu().stats();
  registry->SetCounter("cpu.process_work_ns", cpu.process_work);
  registry->SetCounter("cpu.context_switch_ns", cpu.context_switch);
  registry->SetCounter("cpu.interrupt_work_ns", cpu.interrupt_work);
  registry->SetCounter("cpu.switches", static_cast<int64_t>(cpu.switches));
  registry->SetCounter("cpu.interrupts", static_cast<int64_t>(cpu.interrupts));

  // Ring-buffer evictions of the attached trace: nonzero means snapshots
  // (and anything built from them) are truncated.  Emitted even with no log
  // attached so the counter namespace is stable.
  TraceLog* trace = kernel.cpu().trace();
  registry->SetCounter("trace.dropped_events",
                       trace != nullptr ? static_cast<int64_t>(trace->dropped()) : 0);
  registry->SetCounter("trace.total_events",
                       trace != nullptr ? static_cast<int64_t>(trace->total()) : 0);

  const Kernel::Stats& sys = kernel.stats();
  registry->SetCounter("sys.syscalls", static_cast<int64_t>(sys.syscalls));
  registry->SetCounter("sys.splices_sync", static_cast<int64_t>(sys.splices_sync));
  registry->SetCounter("sys.splices_async", static_cast<int64_t>(sys.splices_async));

  const BufferCache::Stats& cache = kernel.cache().stats();
  registry->SetCounter("cache.hits", static_cast<int64_t>(cache.hits));
  registry->SetCounter("cache.misses", static_cast<int64_t>(cache.misses));
  registry->SetCounter("cache.delwri_flushes", static_cast<int64_t>(cache.delwri_flushes));
  registry->SetCounter("cache.delwri_write_errors",
                       static_cast<int64_t>(cache.delwri_write_errors));
  registry->SetCounter("cache.delwri_data_lost", static_cast<int64_t>(cache.delwri_data_lost));
  registry->SetCounter("cache.transient_allocs", static_cast<int64_t>(cache.transient_allocs));
  registry->SetCounter("cache.async_read_fails", static_cast<int64_t>(cache.async_read_fails));

  const SpliceEngine::Stats& splice = kernel.splice_engine().stats();
  registry->SetCounter("splice.started", static_cast<int64_t>(splice.splices_started));
  registry->SetCounter("splice.completed", static_cast<int64_t>(splice.splices_completed));
  registry->SetCounter("splice.total_bytes", splice.total_bytes);

  // Operator counters are emitted unconditionally (zeros when no program
  // ever ran) so the kop.* namespace is stable across configurations.
  registry->SetCounter("kop.programs_loaded", static_cast<int64_t>(sys.kop_loads));
  registry->SetCounter("kop.load_failures", static_cast<int64_t>(sys.kop_load_failures));
  registry->SetCounter("kop.attaches", static_cast<int64_t>(sys.kop_attaches));
  registry->SetCounter("kop.chunks_in", static_cast<int64_t>(splice.kop_chunks_in));
  registry->SetCounter("kop.chunks_dropped", static_cast<int64_t>(splice.kop_chunks_dropped));
  registry->SetCounter("kop.chunks_rejected", static_cast<int64_t>(splice.kop_chunks_rejected));
  registry->SetCounter("kop.bytes_in", splice.kop_bytes_in);
  registry->SetCounter("kop.bytes_out", splice.kop_bytes_out);
  registry->SetCounter("kop.exec_ns", splice.kop_exec_time);

  // Ring counters are emitted even when no ring exists (all zeros), so the
  // counter namespace is stable across configurations.
  SpliceRing::Stats aio;
  int nrings = 0;
  for (SpliceRing* ring : kernel.Rings()) {
    ++nrings;
    const SpliceRing::Stats& r = ring->stats();
    aio.submitted += r.submitted;
    aio.completed += r.completed;
    aio.harvested += r.harvested;
    aio.cancelled += r.cancelled;
    aio.eagain_returns += r.eagain_returns;
    aio.overflows += r.overflows;
    aio.reaps += r.reaps;
    aio.sq_depth_max = std::max(aio.sq_depth_max, r.sq_depth_max);
  }
  registry->SetCounter("aio.rings", nrings);
  registry->SetCounter("aio.submitted", static_cast<int64_t>(aio.submitted));
  registry->SetCounter("aio.completed", static_cast<int64_t>(aio.completed));
  registry->SetCounter("aio.harvested", static_cast<int64_t>(aio.harvested));
  registry->SetCounter("aio.cancelled", static_cast<int64_t>(aio.cancelled));
  registry->SetCounter("aio.eagain_returns", static_cast<int64_t>(aio.eagain_returns));
  registry->SetCounter("aio.overflows", static_cast<int64_t>(aio.overflows));
  registry->SetCounter("aio.reaps", static_cast<int64_t>(aio.reaps));
  registry->SetCounter("aio.sq_depth_max", aio.sq_depth_max);

  // Lock-discipline counters (docs/klock.md).  The acquisition counters are
  // always on; the order-graph numbers come from the lockdep validator and
  // are zeros when IKDP_LOCKDEP is off — emitted anyway so the lock.*
  // namespace is stable across configurations.
  const LockStats& locks = GlobalLockStats();
  registry->SetCounter("lock.spin_acquisitions", static_cast<int64_t>(locks.spin_acquisitions));
  registry->SetCounter("lock.sleep_acquisitions",
                       static_cast<int64_t>(locks.sleep_acquisitions));
  registry->SetCounter("lock.sleep_contention", static_cast<int64_t>(locks.sleep_contention));
  registry->SetCounter("lock.max_held", locks.max_held);
  registry->SetCounter("lock.max_held_rank", locks.max_held_rank);
  registry->SetCounter("lock.order_edges", static_cast<int64_t>(Lockdep().edges().size()));
  registry->SetCounter("lock.violations", static_cast<int64_t>(Lockdep().violations().size()));

  for (FileSystem* fs : kernel.Mounts()) {
    auto* drv = dynamic_cast<DiskDriver*>(fs->dev());
    if (drv == nullptr) {
      continue;  // RAM disks have no scheduler underneath
    }
    const std::string prefix = "disk." + fs->name() + ".";
    const DiskDriver::Stats& d = drv->stats();
    registry->SetCounter(prefix + "requests", static_cast<int64_t>(d.requests));
    registry->SetCounter(prefix + "interrupts", static_cast<int64_t>(d.interrupts));
    registry->SetCounter(prefix + "sort_passes", static_cast<int64_t>(d.sort_passes));
    registry->SetCounter(prefix + "max_queue_depth", static_cast<int64_t>(d.max_queue_depth));
    const DiskModel::Stats& m = drv->disk().stats();
    registry->SetCounter(prefix + "reads", static_cast<int64_t>(m.reads));
    registry->SetCounter(prefix + "writes", static_cast<int64_t>(m.writes));
    registry->SetCounter(prefix + "read_cache_hits", static_cast<int64_t>(m.read_cache_hits));
    registry->SetCounter(prefix + "seeks", static_cast<int64_t>(m.seeks));
    registry->SetCounter(prefix + "errors", static_cast<int64_t>(m.errors));
    registry->SetCounter(prefix + "enospc_errors", static_cast<int64_t>(m.enospc_errors));
    registry->SetCounter(prefix + "faults_transient",
                         static_cast<int64_t>(m.faults_transient));
    registry->SetCounter(prefix + "faults_permanent",
                         static_cast<int64_t>(m.faults_permanent));
    registry->SetCounter(prefix + "latency_spikes", static_cast<int64_t>(m.latency_spikes));
    registry->SetCounter(prefix + "hw_max_queue_depth",
                         static_cast<int64_t>(m.max_queue_depth));
    registry->SetCounter(prefix + "bytes_read", m.bytes_read);
    registry->SetCounter(prefix + "bytes_written", m.bytes_written);
    registry->SetCounter(prefix + "busy_time_ns", m.busy_time);
  }
}

}  // namespace ikdp
