// Table-1-style grid for the asynchronous splice ring (docs/splice_ring.2.md).
//
// N concurrent 512 KB disk-to-disk streams (N in {1, 4, 16}) are driven from
// one process while the CPU-bound test program runs, submitted three ways:
//
//   sync    one synchronous splice at a time (no overlap, N traps)
//   fasync  the paper's FASYNC+SIGIO: N async splices, then SIGIO + tell(2)
//           polls to discover which stream finished (signals coalesce and
//           carry no per-operation status)
//   ring    the splice ring: one ring_enter trap submits the batch and waits;
//           completions harvest without trapping
//
// Each cell reports aggregate throughput, the test program's slowdown F, and
// the submitting process's mode-switch ledger (syscall traps and the CPU
// time they charged).  The ring runs with max_inflight = N so fasync and
// ring drive identical engine concurrency — the grid isolates submission
// cost, not overlap.
//
// Emits BENCH_aio.json (schema ikdp.bench.v1, every check below a gate) plus
// a ring-run telemetry export BENCH_aio_telemetry.json (schema
// ikdp.telemetry.v1, including the aio.sq_depth and aio.completion_latency
// histograms), re-parses both with the bundled JSON reader, and exits
// nonzero if any check fails — including the headline acceptance: at N = 16
// the ring must reach at least FASYNC throughput while charging strictly
// fewer trap cycles.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/metrics/report.h"
#include "src/metrics/telemetry.h"
#include "src/metrics/trace_export.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/programs.h"

namespace {

using ikdp::bench::ModeName;
ikdp::bench::CheckList g_checks;

struct CellResult {
  ikdp::SubmitMode mode;
  int n = 0;
  ikdp::MultiStreamResult ms;
  int64_t test_ops = 0;
  double slowdown = 0;
  double idle_fraction = 0;
  bool verified = false;
};

// One fresh machine per cell: two RAM disks, N source files of
// `stream_bytes` each (per-stream byte patterns), the CPU-bound test
// program, and one relay process running MultiStreamCopyProgram.
// `registry`, when non-null, receives online histograms plus a final
// counter capture.
CellResult RunCell(ikdp::SubmitMode mode, int n, int64_t stream_bytes,
                   ikdp::MetricsRegistry* registry) {
  CellResult cell;
  cell.mode = mode;
  cell.n = n;

  ikdp::Simulator sim;
  ikdp::Kernel kernel(&sim, ikdp::DecStation5000Costs());
  ikdp::TraceLog trace(1 << 18);
  std::unique_ptr<ikdp::TelemetryCollector> collector;
  if (registry != nullptr) {
    collector = std::make_unique<ikdp::TelemetryCollector>(registry);
    collector->Attach(&trace);
    kernel.AttachTrace(&trace);
  }

  ikdp::RamDisk src_dev(&kernel.cpu(), 16ll << 20);
  ikdp::RamDisk dst_dev(&kernel.cpu(), 16ll << 20);
  ikdp::FileSystem* src_fs = kernel.MountFs(&src_dev, "srcfs");
  ikdp::FileSystem* dst_fs = kernel.MountFs(&dst_dev, "dstfs");

  auto pattern = [](int stream, int64_t i) {
    return static_cast<uint8_t>(((i * 2654435761u) >> 5 ^ stream * 97) & 0xff);
  };
  std::vector<ikdp::StreamSpec> streams;
  for (int i = 0; i < n; ++i) {
    const std::string name = std::string("s").append(std::to_string(i));
    if (src_fs->CreateFileInstant(name, stream_bytes,
                                  [&pattern, i](int64_t b) { return pattern(i, b); }) ==
        nullptr) {
      return cell;
    }
    ikdp::StreamSpec spec;
    spec.src = "srcfs:" + name;
    spec.dst = "dstfs:d" + std::to_string(i);
    spec.nbytes = stream_bytes;
    streams.push_back(std::move(spec));
  }

  ikdp::TestProgramState test_state;
  const ikdp::SimDuration op_cost = ikdp::Milliseconds(1);
  kernel.Spawn("test", [&kernel, op_cost, &test_state](ikdp::Process& p) -> ikdp::Task<> {
    co_await ikdp::TestProgram(kernel, p, op_cost, &test_state);
  });

  ikdp::RingConfig ring_config;
  ring_config.sq_entries = 2 * n;
  ring_config.max_inflight = n;  // match FASYNC's (uncapped) concurrency
  kernel.Spawn("relay",
               [&kernel, mode, streams, &cell, ring_config,
                &test_state](ikdp::Process& p) -> ikdp::Task<> {
                 co_await ikdp::MultiStreamCopyProgram(kernel, p, mode, streams, &cell.ms,
                                                       ring_config);
                 test_state.stop = true;
               });

  sim.Run();
  if (!cell.ms.ok || kernel.cpu().alive() != 0) {
    return cell;
  }

  kernel.cache().FlushAllInstant();
  for (int i = 0; i < n; ++i) {
    ikdp::Inode* ip = dst_fs->Lookup(std::string("d").append(std::to_string(i)));
    if (ip == nullptr || ip->size != stream_bytes) {
      return cell;
    }
    const std::vector<uint8_t> back = dst_fs->ReadFileInstant(ip);
    for (int64_t b = 0; b < stream_bytes; ++b) {
      if (back[static_cast<size_t>(b)] != pattern(i, b)) {
        return cell;
      }
    }
  }
  cell.verified = true;

  cell.test_ops = test_state.ops;
  const double ideal_ops = static_cast<double>(cell.ms.end - cell.ms.start) /
                           static_cast<double>(op_cost);
  cell.slowdown =
      cell.test_ops > 0 ? ideal_ops / static_cast<double>(cell.test_ops) : 0.0;
  cell.idle_fraction = ikdp::IdleFraction(kernel, sim.Now());
  if (registry != nullptr) {
    ikdp::CaptureKernelCounters(registry, kernel);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t stream_kb = 512;
  if (argc > 1) {
    stream_kb = std::max(8l, std::strtol(argv[1], nullptr, 10));
  }
  const int64_t stream_bytes = stream_kb << 10;
  std::printf("ikdp bench: splice ring vs FASYNC+SIGIO vs sync loop (%lld KB/stream, RAM)\n\n",
              static_cast<long long>(stream_kb));

  const std::vector<int> ns = {1, 4, 16};
  const std::vector<ikdp::SubmitMode> modes = {
      ikdp::SubmitMode::kSyncLoop, ikdp::SubmitMode::kFasyncSigio, ikdp::SubmitMode::kRing};

  // The N = 16 ring cell doubles as the telemetry specimen: its registry is
  // exported under ikdp.telemetry.v1 with the aio histograms populated.
  ikdp::MetricsRegistry ring_registry;

  std::printf("%-7s %4s %12s %10s %7s %8s %13s %7s\n", "mode", "N", "tput KB/s", "elapsed",
              "F", "traps", "trap-time ms", "SIGIOs");
  ikdp::bench::BenchArtifact artifact("aio_ring");
  artifact.config.Int("stream_kb", stream_kb);
  std::vector<CellResult> cells;
  for (int n : ns) {
    for (ikdp::SubmitMode mode : modes) {
      const bool specimen = mode == ikdp::SubmitMode::kRing && n == 16;
      CellResult cell = RunCell(mode, n, stream_bytes, specimen ? &ring_registry : nullptr);
      std::printf("%-7s %4d %12.0f %9.3fs %7.2f %8llu %13.3f %7llu%s\n", ModeName(mode), n,
                  cell.ms.ThroughputKbs(), cell.ms.ElapsedSeconds(), cell.slowdown,
                  static_cast<unsigned long long>(cell.ms.syscall_traps),
                  static_cast<double>(cell.ms.trap_time) / 1e6,
                  static_cast<unsigned long long>(cell.ms.sigio_handled),
                  cell.verified ? "" : "  NOT VERIFIED");
      artifact.rows.emplace_back()
          .Str("mode", ModeName(mode))
          .Int("n", n)
          .Num("throughput_kbs", cell.ms.ThroughputKbs(), 1)
          .Num("elapsed_s", cell.ms.ElapsedSeconds(), 6)
          .Num("slowdown", cell.slowdown, 4)
          .Int("traps", cell.ms.syscall_traps)
          .Int("trap_time_ns", cell.ms.trap_time)
          .Int("sigio", cell.ms.sigio_handled)
          .Num("idle_fraction", cell.idle_fraction, 4)
          .Bool("verified", cell.verified);
      cells.push_back(std::move(cell));
    }
  }
  std::printf("\n");

  auto find = [&cells](ikdp::SubmitMode mode, int n) -> const CellResult& {
    for (const CellResult& c : cells) {
      if (c.mode == mode && c.n == n) {
        return c;
      }
    }
    static const CellResult kEmpty{};
    return kEmpty;
  };
  const CellResult& ring16 = find(ikdp::SubmitMode::kRing, 16);
  const CellResult& fasync16 = find(ikdp::SubmitMode::kFasyncSigio, 16);

  // BENCH_aio.json is written once the checks below have run: they are its gates.
  const char* out_path = "BENCH_aio.json";
  const char* telemetry_path = "BENCH_aio_telemetry.json";
  {
    std::ofstream out(telemetry_path);
    ikdp::ExportRegistryJson(ring_registry, out);
  }
  std::printf("wrote %s and %s\n\n", out_path, telemetry_path);

  for (const CellResult& c : cells) {
    char label[96];
    std::snprintf(label, sizeof(label), "%s N=%d verified, ledger sane", ModeName(c.mode), c.n);
    g_checks.Check(c.verified && c.idle_fraction >= 0.0 && c.idle_fraction <= 1.0, label);
  }
  g_checks.Check(ring16.ms.ThroughputKbs() >= fasync16.ms.ThroughputKbs(),
                 "N=16: ring throughput >= FASYNC+SIGIO");
  g_checks.Check(ring16.ms.trap_time < fasync16.ms.trap_time &&
                     ring16.ms.syscall_traps < fasync16.ms.syscall_traps,
                 "N=16: ring charges strictly fewer trap cycles");
  const CellResult& sync16 = find(ikdp::SubmitMode::kSyncLoop, 16);
  g_checks.Check(ring16.ms.ThroughputKbs() > sync16.ms.ThroughputKbs(),
                 "N=16: overlap beats the synchronous loop");
  g_checks.Check(fasync16.ms.sigio_handled >= 1 && fasync16.ms.sigio_handled <= 16,
                 "N=16: FASYNC SIGIOs coalesced into [1,16]");

  ikdp::JsonValue telem_json;
  g_checks.Check(ikdp::ParseJson(ikdp::bench::Slurp(telemetry_path), &telem_json),
                 "telemetry export parses (strict reader)");
  const ikdp::JsonValue* hists = telem_json.Get("histograms");
  g_checks.Check(hists != nullptr && hists->Get("aio.completion_latency") != nullptr &&
                     hists->Get("aio.sq_depth") != nullptr,
                 "aio histograms present in ikdp.telemetry.v1 export");
  const ikdp::LatencyHistogram* lat = ring_registry.Histogram("aio.completion_latency");
  g_checks.Check(static_cast<int>(lat->count()) == 16,
                 "completion-latency sample per ring op");
  g_checks.Check(ring_registry.GetCounter("aio.submitted") == 16 &&
                     ring_registry.GetCounter("aio.harvested") == 16,
                 "ring counters: 16 submitted, 16 harvested");

  artifact.Write(out_path, &g_checks);
  std::printf("\n%s\n", g_checks.ok ? "ALL CHECKS PASS" : "CHECKS FAILED");
  return g_checks.ok ? 0 : 1;
}
