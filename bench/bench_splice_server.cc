// SpliceServer SLO bench: 1000 clients, Poisson arrivals, Zipf objects,
// file->UDP splices under all three submission modes.
//
// For each mode the identical request stream (same seed, drawn on demand in
// the same order) is served twice — once with the kspan collector detached
// and once attached — and the two runs must agree on every simulated-time
// observable (end time, bytes, completions, the CPU ledger): observability
// is free or it is broken.  The spans-off run feeds the online SLO monitor
// (src/metrics/slo.h); the spans-on run exports per-request artifacts for
// the ring mode:
//
//   SERVER_spans.json   span trees as Chrome trace async slices (Perfetto)
//   SERVER_folded.txt   flame-graph folded stacks of attributed CPU
//
// Emits BENCH_server.json (schema ikdp.bench.v1) with per-mode p50/p99/p999
// latency, goodput, stall-watchdog flags, the invariant bits, and every check
// below as a gate; re-parses it with the strict reader and exits nonzero on
// any violated check.  The CPU attribution closure is asserted per run inside
// RunSpliceServer's result — a failed closure fails the bench.
//
// `bench_splice_server small` runs the reduced CI grid (64 clients).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/metrics/slo.h"
#include "src/metrics/span_trace.h"
#include "src/sim/kspan.h"
#include "src/workload/splice_server.h"

namespace {

using ikdp::bench::ModeName;
ikdp::bench::CheckList g_checks;

struct ModeRun {
  ikdp::SubmitMode mode;
  ikdp::SpliceServerResult off;  // collector detached (the measured run)
  ikdp::SpliceServerResult on;   // collector attached (the observed run)
  ikdp::SloReport slo;           // from the measured run
  uint64_t spans_begun = 0;
  bool spans_balanced = false;
  std::string span_err;
  bool overhead_zero = false;  // on == off on every simulated observable
};

ikdp::SpliceServerResult RunOnce(const ikdp::SpliceServerConfig& cfg, ikdp::SloMonitor* slo) {
  ikdp::SpliceServerHooks hooks;
  if (slo != nullptr) {
    hooks.on_start = [slo](uint64_t id, ikdp::SimTime t) { slo->OnRequestStart(id, t); };
    hooks.on_progress = [slo](uint64_t id, ikdp::SimTime t, int64_t) {
      slo->OnRequestProgress(id, t);
    };
    hooks.on_end = [slo](uint64_t id, ikdp::SimTime t, int64_t bytes, bool error) {
      slo->OnRequestEnd(id, t, bytes, error);
    };
    hooks.on_tick = [slo](ikdp::SimTime now) { slo->CheckStalls(now); };
  }
  return ikdp::RunSpliceServer(cfg, hooks);
}

bool SameStats(const ikdp::CpuSystem::Stats& a, const ikdp::CpuSystem::Stats& b) {
  return a.process_work == b.process_work && a.context_switch == b.context_switch &&
         a.interrupt_work == b.interrupt_work && a.switches == b.switches &&
         a.interrupts == b.interrupts;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = ikdp::bench::SmallGrid(argc, argv);

  ikdp::SpliceServerConfig cfg;
  cfg.n_clients = small ? 64 : 1000;
  cfg.n_objects = small ? 16 : 64;
  cfg.object_bytes = 2 * ikdp::kBlockSize;  // 16 KB: ~13 ms on a 10 Mbit wire
  cfg.total_requests = small ? 200 : 2000;
  cfg.offered_rps = 400.0;
  cfg.sync_workers = 16;
  cfg.ring_inflight = 64;
  cfg.seed = 42;
  cfg.tick = ikdp::Milliseconds(100);
  // The watchdog gates on wedged requests, so the threshold must sit above
  // honest queueing delay.  The full grid offers 400 req/s (6.4 MB/s) against
  // a single-server capacity of ~5.6 MB/s in the fasync/ring modes, so late
  // arrivals legitimately wait ~2-3 s for their first byte; 1 s there would
  // flag plain overload as a stall.  The small CI grid is far under capacity
  // and keeps the tight threshold.
  const ikdp::SimDuration stall_threshold = small ? ikdp::Seconds(1) : ikdp::Seconds(5);

  std::printf("ikdp bench: SpliceServer SLO, %d clients, %d requests @ %.0f req/s "
              "(Poisson, Zipf %.1f over %d objects, %lld KB each)\n\n",
              cfg.n_clients, cfg.total_requests, cfg.offered_rps, cfg.zipf_s, cfg.n_objects,
              static_cast<long long>(cfg.object_bytes >> 10));
  std::printf("%-7s %6s %4s %9s %9s %9s %9s %7s %6s %7s\n", "mode", "done", "err", "p50 ms",
              "p99 ms", "p999 ms", "MB/s", "traps", "stall", "spans");

  const std::vector<ikdp::SubmitMode> modes = {
      ikdp::SubmitMode::kSyncLoop, ikdp::SubmitMode::kFasyncSigio, ikdp::SubmitMode::kRing};
  ikdp::bench::BenchArtifact artifact("splice_server");
  artifact.config.Str("grid", small ? "small" : "full")
      .Int("clients", cfg.n_clients)
      .Int("objects", cfg.n_objects)
      .Int("object_kb", cfg.object_bytes >> 10)
      .Int("requests", cfg.total_requests)
      .Num("offered_rps", cfg.offered_rps, 1)
      .Num("zipf_s", cfg.zipf_s, 2)
      .Int("seed", cfg.seed);
  std::vector<ModeRun> runs;
  for (ikdp::SubmitMode mode : modes) {
    ModeRun mr;
    mr.mode = mode;
    cfg.mode = mode;

    ikdp::SloMonitor slo(stall_threshold);
    mr.off = RunOnce(cfg, &slo);
    mr.slo = slo.Report(mr.off.end_time);

    ikdp::KspanCollector spans;
    ikdp::AttachKspan(&spans);
    mr.on = RunOnce(cfg, nullptr);
    ikdp::AttachKspan(nullptr);
    mr.spans_begun = spans.begun();
    mr.spans_balanced = spans.CheckBalanced(&mr.span_err);

    mr.overhead_zero = mr.on.end_time == mr.off.end_time && mr.on.bytes == mr.off.bytes &&
                       mr.on.completed == mr.off.completed &&
                       mr.on.errored == mr.off.errored &&
                       mr.on.server_traps == mr.off.server_traps &&
                       SameStats(mr.on.server_cpu, mr.off.server_cpu) &&
                       SameStats(mr.on.client_cpu, mr.off.client_cpu);

    std::printf("%-7s %6llu %4llu %9.2f %9.2f %9.2f %9.2f %7llu %6llu %7llu\n",
                ModeName(mode), static_cast<unsigned long long>(mr.off.completed),
                static_cast<unsigned long long>(mr.off.errored),
                static_cast<double>(mr.slo.p50_ns) / 1e6,
                static_cast<double>(mr.slo.p99_ns) / 1e6,
                static_cast<double>(mr.slo.p999_ns) / 1e6, mr.slo.goodput_bps / 1e6,
                static_cast<unsigned long long>(mr.off.server_traps),
                static_cast<unsigned long long>(mr.slo.stall_flags),
                static_cast<unsigned long long>(mr.spans_begun));

    // Ring mode's observed run carries the richest trees (request -> aio.op
    // -> splice.stream); export its per-request artifacts.
    if (mode == ikdp::SubmitMode::kRing) {
      {
        std::ofstream out("SERVER_spans.json");
        ikdp::ExportSpanChromeTrace(spans, out);
      }
      {
        std::ofstream out("SERVER_folded.txt");
        ikdp::ExportFoldedStacks(spans, mr.on.attribution, out);
      }
      const std::vector<ikdp::RequestBreakdown> reqs =
          ikdp::BuildRequestBreakdowns(spans, mr.on.attribution);
      ikdp::SimDuration worst = -1;
      const ikdp::RequestBreakdown* slowest = nullptr;
      for (const ikdp::RequestBreakdown& r : reqs) {
        if (r.Latency() > worst) {
          worst = r.Latency();
          slowest = &r;
        }
      }
      if (slowest != nullptr) {
        std::printf("\nslowest ring request #%lld: %.2f ms wall, %.1f us CPU attributed\n",
                    static_cast<long long>(slowest->arg),
                    static_cast<double>(slowest->Latency()) / 1e6,
                    static_cast<double>(slowest->cpu_total) / 1e3);
        for (const auto& [key, ns] : slowest->cpu) {
          std::printf("    %-24s %9.1f us\n", key.c_str(), static_cast<double>(ns) / 1e3);
        }
      }
    }
    artifact.rows.emplace_back()
        .Str("mode", ModeName(mode))
        .Int("completed", mr.off.completed)
        .Int("errored", mr.off.errored)
        .Int("bytes", mr.off.bytes)
        .Num("elapsed_s", static_cast<double>(mr.off.end_time) / 1e9, 6)
        .Int("p50_ns", mr.slo.p50_ns)
        .Int("p99_ns", mr.slo.p99_ns)
        .Int("p999_ns", mr.slo.p999_ns)
        .Int("max_ns", mr.slo.max_ns)
        .Num("goodput_bps", mr.slo.goodput_bps, 1)
        .Int("stall_flags", mr.slo.stall_flags)
        .Int("server_traps", mr.off.server_traps)
        .Int("sigio_handled", mr.off.sigio_handled)
        .Int("spans", mr.spans_begun)
        .Bool("spans_balanced", mr.spans_balanced)
        .Bool("closure_ok", mr.off.closure_ok && mr.on.closure_ok)
        .Bool("overhead_zero", mr.overhead_zero);
    runs.push_back(std::move(mr));
  }
  std::printf("\n");

  // BENCH_server.json is written once the checks below have run: they are its gates.
  const char* out_path = "BENCH_server.json";
  std::printf("wrote %s, SERVER_spans.json, SERVER_folded.txt\n\n", out_path);

  const int64_t want_bytes =
      static_cast<int64_t>(cfg.total_requests) * cfg.object_bytes;
  for (const ModeRun& r : runs) {
    char what[192];
    std::snprintf(what, sizeof(what), "%s: every request completed, none errored",
                  ModeName(r.mode));
    g_checks.Check(r.off.completed == static_cast<uint64_t>(cfg.total_requests) &&
                       r.off.errored == 0,
                   what);
    std::snprintf(what, sizeof(what), "%s: every byte delivered (%lld)", ModeName(r.mode),
                  static_cast<long long>(want_bytes));
    g_checks.Check(r.off.bytes == want_bytes, what);
    std::snprintf(what, sizeof(what), "%s: attribution closure (both runs, both CPUs)",
                  ModeName(r.mode));
    g_checks.Check(r.off.closure_ok && r.on.closure_ok, what);
    if (!r.off.closure_err.empty() || !r.on.closure_err.empty()) {
      std::fprintf(stderr, "  [%s] %s %s\n", ModeName(r.mode), r.off.closure_err.c_str(),
                   r.on.closure_err.c_str());
    }
    std::snprintf(what, sizeof(what), "%s: spans balanced (%llu minted, each closed once)",
                  ModeName(r.mode), static_cast<unsigned long long>(r.spans_begun));
    g_checks.Check(r.spans_balanced && r.spans_begun > 0, what);
    if (!r.span_err.empty()) {
      std::fprintf(stderr, "  [%s] %s\n", ModeName(r.mode), r.span_err.c_str());
    }
    std::snprintf(what, sizeof(what), "%s: span recording cost zero simulated time",
                  ModeName(r.mode));
    g_checks.Check(r.overhead_zero, what);
    std::snprintf(what, sizeof(what), "%s: no stall-watchdog flags", ModeName(r.mode));
    g_checks.Check(r.slo.stall_flags == 0, what);
    std::snprintf(what, sizeof(what), "%s: percentiles ordered, goodput positive",
                  ModeName(r.mode));
    g_checks.Check(r.slo.p50_ns > 0 && r.slo.p50_ns <= r.slo.p99_ns &&
                       r.slo.p99_ns <= r.slo.p999_ns && r.slo.p999_ns <= r.slo.max_ns &&
                       r.slo.goodput_bps > 0,
                   what);
  }

  artifact.Write(out_path, &g_checks);
  std::printf("\n%s\n", g_checks.ok ? "ALL CHECKS PASS" : "CHECKS FAILED");
  return g_checks.ok ? 0 : 1;
}
