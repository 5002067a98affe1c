// Shared pieces of the perfbench program: statistics, the metric list, what
// one pass of a workload returns, and the per-layer collectors a traced pass
// attaches from outside the simulator.
//
// Two planes are measured.  Simulated results (throughput, availability,
// latencies, layer counters) come from the modelled machine and repeat
// exactly for a given seed.  Host results (wall time, RSS, probes) are what
// the simulator itself costs on the machine running the benchmark.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/cpu.h"
#include "src/metrics/histogram.h"
#include "src/metrics/telemetry.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank order statistic: the smallest sample with at least q*n
// samples at or below it.  0 when there are no samples.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
// Samples strictly beyond the nearest-rank q-percentile.
size_t Beyond(size_t n, double q);
double GeoMean(const std::vector<double>& v);

// Named metrics with units, kept in insertion order for printing.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // 0 when absent.
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Named pass/fail gates; a gate passes when it held every time it ran.
class Checks {
 public:
  void Check(const std::string& what, bool ok);
  uint64_t total() const { return gates_.size(); }
  uint64_t failed() const;
  const std::vector<std::pair<std::string, bool>>& gates() const { return gates_; }

 private:
  std::vector<std::pair<std::string, bool>> gates_;
};

// FNV-1a over the simulated results of a pass.  Two passes over the same
// inputs must produce the same digest, traced or not.
class Digest {
 public:
  void Add(int64_t v);
  void Add(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// What one pass of a workload produced.
struct Pass {
  uint64_t fingerprint = 0;  // Digest of every simulated result
  double setup_s = -1;       // host time before the first simulated event (< 0: not seen)
  uint64_t attempted = 0;    // copies or requests issued
  uint64_t failed = 0;       // ... that did not verify, errored, or came up short
  uint64_t events = 0;       // simulated events executed (0: not visible from outside)
  Metrics sim;               // simulated results: throughput_kbs, cpu_avail, wl.*
  Metrics host;              // host-plane layer numbers measured inside the pass
};

// Exact interval samples paired from begin/end trace records (the keys
// documented in src/sim/trace.h).  Attach one per machine.  The
// TelemetryCollector pairs the same records but keeps only log2 buckets,
// whose quantiles are bucket edges; the per-layer percentiles need the
// samples themselves.
class IntervalRecorder {
 public:
  void Attach(ikdp::TraceLog* log);

  std::vector<double> runq_us;         // kRunnable -> kDispatch
  std::vector<double> disk_ms;         // kDiskDispatch -> kDiskComplete
  std::vector<double> chunk_us;        // kSpliceRead -> kSpliceChunk
  std::map<std::string, std::vector<double>> syscall_us;  // by syscall name

 private:
  void Observe(const ikdp::TraceRecord& r);

  std::map<int64_t, ikdp::SimTime> runnable_;
  std::map<int64_t, std::pair<ikdp::SimTime, std::string>> syscalls_;
  std::map<std::pair<std::string, int64_t>, ikdp::SimTime> disk_;
  std::map<std::pair<int64_t, int64_t>, ikdp::SimTime> reads_;
};

// Everything one machine of a traced pass carries: the TraceLog, the
// repo's TelemetryCollector and the benchmark's exact pairing on it.
struct MachineTrace {
  MachineTrace();
  ikdp::TraceLog log{1 << 12};
  ikdp::MetricsRegistry registry;
  ikdp::TelemetryCollector telemetry{&registry};
  IntervalRecorder intervals;
};

// Per-layer totals of a traced pass, summed over every machine it built.
struct Layers {
  // kern
  uint64_t switches = 0;
  uint64_t interrupts = 0;
  ikdp::SimDuration process_ns = 0;
  ikdp::SimDuration switch_ns = 0;
  ikdp::SimDuration interrupt_ns = 0;
  ikdp::SimDuration softclock_ns = 0;
  ikdp::SimDuration net_interrupt_ns = 0;
  uint64_t lock_acquisitions = 0;
  // buf
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t delwri_flushes = 0;
  uint64_t transient_allocs = 0;
  // dev
  ikdp::SimDuration busy_src_ns = 0;
  ikdp::SimDuration busy_dst_ns = 0;
  ikdp::SimDuration disk_elapsed_ns = 0;  // simulated time the busy fractions divide by
  uint64_t max_queue_depth = 0;
  uint64_t coalesced = 0;
  // os
  uint64_t syscalls = 0;
  int64_t bytes = 0;
  // net
  uint64_t datagrams = 0;
  // exact samples
  IntervalRecorder intervals;
  std::vector<double> stream_ms;  // splice.stream spans
  std::vector<double> wait_ms;    // request arrival -> its splice.stream begins
  std::vector<double> aio_ms;     // aio.op spans
  // TelemetryCollector interval counts, to cross-check the exact pairing.
  uint64_t telemetry_intervals = 0;

  // Adds one finished machine: CPU ledger and attribution, cache, disks
  // and syscalls, plus its trace.  `elapsed` is the simulated interval the
  // disk busy fractions are taken over.
  void AddKernel(ikdp::Kernel& k, MachineTrace& t, ikdp::SimDuration elapsed);
  void AddAttribution(const std::map<ikdp::CpuSystem::ChargeKey, ikdp::SimDuration>& a);
  void AddSpans(const ikdp::KspanCollector& spans);

  // Exact pairs the recorder saw, for comparison with telemetry_intervals.
  uint64_t ExactIntervals() const;

  void Report(Metrics* out) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
