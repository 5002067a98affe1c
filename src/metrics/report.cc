#include "src/metrics/report.h"

#include <cstdio>
#include <ostream>

#include "src/dev/disk_driver.h"
#include "src/fs/filesystem.h"

namespace ikdp {

double IdleFraction(const Kernel& kernel, SimTime elapsed) {
  if (elapsed <= 0) {
    return 1.0;
  }
  const CpuSystem::Stats& s = const_cast<Kernel&>(kernel).cpu().stats();
  const SimDuration busy = s.process_work + s.context_switch + s.interrupt_work;
  return 1.0 - static_cast<double>(busy) / static_cast<double>(elapsed);
}

void PrintMachineReport(std::ostream& os, Kernel& kernel) {
  char line[256];
  const SimTime now = kernel.sim()->Now();
  const CpuSystem::Stats& cpu = kernel.cpu().stats();
  const BufferCache::Stats& cache = kernel.cache().stats();
  const SpliceEngine::Stats& splice = kernel.splice_engine().stats();
  const Kernel::Stats& sys = kernel.stats();

  os << "=== machine report @ " << FormatDuration(now) << " ===\n";
  std::snprintf(line, sizeof(line),
                "cpu:    process %s, switch %s (%llu), interrupt %s (%llu), idle %.1f%%\n",
                FormatDuration(cpu.process_work).c_str(),
                FormatDuration(cpu.context_switch).c_str(),
                static_cast<unsigned long long>(cpu.switches),
                FormatDuration(cpu.interrupt_work).c_str(),
                static_cast<unsigned long long>(cpu.interrupts),
                100.0 * IdleFraction(kernel, now));
  os << line;
  std::snprintf(line, sizeof(line),
                "sys:    %llu syscalls, %llu sync + %llu async splices\n",
                static_cast<unsigned long long>(sys.syscalls),
                static_cast<unsigned long long>(sys.splices_sync),
                static_cast<unsigned long long>(sys.splices_async));
  os << line;
  if (TraceLog* trace = kernel.cpu().trace()) {
    std::snprintf(line, sizeof(line), "trace:  %llu events, %llu dropped\n",
                  static_cast<unsigned long long>(trace->total()),
                  static_cast<unsigned long long>(trace->dropped()));
    os << line;
  }
  const uint64_t lookups = cache.hits + cache.misses;
  std::snprintf(line, sizeof(line),
                "cache:  %d bufs, %llu hits / %llu misses (%.1f%% hit), %llu victim flushes "
                "(%llu write errors, %llu lost), %llu transient headers\n",
                kernel.cache().nbufs(), static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                lookups > 0 ? 100.0 * static_cast<double>(cache.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<unsigned long long>(cache.delwri_flushes),
                static_cast<unsigned long long>(cache.delwri_write_errors),
                static_cast<unsigned long long>(cache.delwri_data_lost),
                static_cast<unsigned long long>(cache.transient_allocs));
  os << line;
  std::snprintf(line, sizeof(line), "splice: %llu started, %llu completed, %lld bytes moved\n",
                static_cast<unsigned long long>(splice.splices_started),
                static_cast<unsigned long long>(splice.splices_completed),
                static_cast<long long>(splice.total_bytes));
  os << line;
  // iostat-style per-disk lines for mounted filesystems whose device has a
  // real scheduler underneath (RAM disks have none).
  for (FileSystem* fs : kernel.Mounts()) {
    auto* drv = dynamic_cast<DiskDriver*>(fs->dev());
    if (drv == nullptr) {
      continue;
    }
    const DiskModel::Stats& m = drv->disk().stats();
    std::snprintf(line, sizeof(line),
                  "disk:   %s (%s): %llu requests (%llu r / %llu w), %llu sort passes, "
                  "depth %llu/%llu, busy %s, %llu errors\n",
                  fs->name().c_str(), drv->Name(),
                  static_cast<unsigned long long>(drv->stats().requests),
                  static_cast<unsigned long long>(m.reads),
                  static_cast<unsigned long long>(m.writes),
                  static_cast<unsigned long long>(drv->stats().sort_passes),
                  static_cast<unsigned long long>(drv->stats().max_queue_depth),
                  static_cast<unsigned long long>(m.max_queue_depth),
                  FormatDuration(m.busy_time).c_str(),
                  static_cast<unsigned long long>(m.errors));
    os << line;
    // Fault-injection detail, only when the plan (or hook) actually fired —
    // a clean run keeps its report identical to the pre-fault layout.
    if (m.errors > 0 || m.latency_spikes > 0) {
      std::snprintf(line, sizeof(line),
                    "faults: %s: %llu transient, %llu permanent, %llu enospc, %llu "
                    "latency spikes\n",
                    fs->name().c_str(),
                    static_cast<unsigned long long>(m.faults_transient),
                    static_cast<unsigned long long>(m.faults_permanent),
                    static_cast<unsigned long long>(m.enospc_errors),
                    static_cast<unsigned long long>(m.latency_spikes));
      os << line;
    }
  }
}

}  // namespace ikdp
