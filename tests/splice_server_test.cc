// Integration tests for the SpliceServer workload (src/workload/splice_server.h):
// every submit mode delivers the full request stream with the CPU attribution
// closure intact, the span tree balances with a collector attached, span
// recording and hooks change nothing in simulated time, the same seed
// reproduces the same run, and the hook feed drives the SLO monitor
// correctly (including the stall watchdog under an aggressive threshold).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kop/kop.h"
#include "src/metrics/slo.h"
#include "src/sim/kspan.h"
#include "src/sim/time.h"
#include "src/workload/splice_server.h"

namespace ikdp {
namespace {

SpliceServerConfig SmallConfig(SubmitMode mode) {
  SpliceServerConfig cfg;
  cfg.n_clients = 16;
  cfg.n_objects = 8;
  cfg.object_bytes = 2 * kBlockSize;
  cfg.total_requests = 40;
  cfg.offered_rps = 400.0;
  cfg.sync_workers = 4;
  cfg.ring_inflight = 8;
  cfg.seed = 7;
  cfg.mode = mode;
  return cfg;
}

class SpliceServerModes : public ::testing::TestWithParam<SubmitMode> {};

TEST_P(SpliceServerModes, DeliversEveryRequestWithClosure) {
  const SpliceServerConfig cfg = SmallConfig(GetParam());
  const SpliceServerResult r = RunSpliceServer(cfg);
  EXPECT_EQ(r.requests, static_cast<uint64_t>(cfg.total_requests));
  EXPECT_EQ(r.completed, static_cast<uint64_t>(cfg.total_requests));
  EXPECT_EQ(r.errored, 0u);
  EXPECT_EQ(r.bytes, cfg.object_bytes * cfg.total_requests);
  EXPECT_TRUE(r.closure_ok) << r.closure_err;
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.server_traps, 0u);
  EXPECT_GT(r.end_time, 0);
  // The merged ledger mirrors both CPUs' totals, so it cannot be empty.
  EXPECT_FALSE(r.attribution.empty());
}

TEST_P(SpliceServerModes, SpansBalanceAndRecordingIsFree) {
  const SpliceServerConfig cfg = SmallConfig(GetParam());
  const SpliceServerResult off = RunSpliceServer(cfg);

  KspanCollector spans;
  AttachKspan(&spans);
  const SpliceServerResult on = RunSpliceServer(cfg);
  AttachKspan(nullptr);

  // Zero simulated-time overhead: the collector only records.
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.server_traps, on.server_traps);
  EXPECT_EQ(off.server_cpu.process_work, on.server_cpu.process_work);
  EXPECT_EQ(off.server_cpu.interrupt_work, on.server_cpu.interrupt_work);
  EXPECT_EQ(off.server_cpu.switches, on.server_cpu.switches);

  // Every request minted a root span; every span closed exactly once.
  std::string err;
  EXPECT_TRUE(spans.CheckBalanced(&err)) << err;
  uint64_t roots = 0;
  for (const SpanRecord& s : spans.spans()) {
    if (s.parent == kNoSpan && std::string(s.name) == "server.request") {
      ++roots;
      EXPECT_FALSE(s.error);
      EXPECT_EQ(s.result, cfg.object_bytes);
    }
  }
  EXPECT_EQ(roots, static_cast<uint64_t>(cfg.total_requests));
}

TEST_P(SpliceServerModes, SameSeedReproducesTheRun) {
  const SpliceServerConfig cfg = SmallConfig(GetParam());
  const SpliceServerResult a = RunSpliceServer(cfg);
  const SpliceServerResult b = RunSpliceServer(cfg);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.server_traps, b.server_traps);
  EXPECT_EQ(a.server_cpu.process_work, b.server_cpu.process_work);
  // ChargeKey only defines operator< (map ordering), so compare entry-wise.
  ASSERT_EQ(a.attribution.size(), b.attribution.size());
  auto bi = b.attribution.begin();
  for (const auto& [key, t] : a.attribution) {
    EXPECT_FALSE(key < bi->first || bi->first < key);
    EXPECT_EQ(t, bi->second);
    ++bi;
  }
}

TEST_P(SpliceServerModes, HooksDriveTheSloMonitor) {
  const SpliceServerConfig cfg = SmallConfig(GetParam());
  SloMonitor slo(Seconds(10));
  uint64_t ticks = 0;
  SpliceServerHooks hooks;
  hooks.on_start = [&](uint64_t id, SimTime t) { slo.OnRequestStart(id, t); };
  hooks.on_progress = [&](uint64_t id, SimTime t, int64_t) { slo.OnRequestProgress(id, t); };
  hooks.on_end = [&](uint64_t id, SimTime t, int64_t bytes, bool error) {
    slo.OnRequestEnd(id, t, bytes, error);
  };
  hooks.on_tick = [&](SimTime now) {
    ++ticks;
    slo.CheckStalls(now);
  };
  const SpliceServerResult r = RunSpliceServer(cfg, hooks);
  EXPECT_TRUE(r.ok) << r.closure_err;

  const SloReport report = slo.Report(r.end_time);
  EXPECT_EQ(report.completed, static_cast<uint64_t>(cfg.total_requests));
  EXPECT_EQ(report.open, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.bytes, r.bytes);
  EXPECT_GT(report.p50_ns, 0);
  EXPECT_LE(report.p50_ns, report.p99_ns);
  EXPECT_LE(report.p99_ns, report.p999_ns);
  EXPECT_GT(report.goodput_bps, 0.0);
  // Requests sit comfortably under a 10 s threshold: no stalls.
  EXPECT_EQ(report.stall_flags, 0u);
  EXPECT_GT(ticks, 0u);
}

TEST_P(SpliceServerModes, AggressiveWatchdogFlagsQueueing) {
  // With a threshold far below the wire's transfer time, time-to-first-byte
  // alone exceeds it: the watchdog must flag requests and the flags must
  // surface in the report.  (This is the detector the fault suite relies on;
  // here we prove it actually fires when latency exists.)
  SpliceServerConfig cfg = SmallConfig(GetParam());
  cfg.tick = Milliseconds(1);
  SloMonitor slo(Microseconds(100));
  SpliceServerHooks hooks;
  hooks.on_start = [&](uint64_t id, SimTime t) { slo.OnRequestStart(id, t); };
  hooks.on_progress = [&](uint64_t id, SimTime t, int64_t) { slo.OnRequestProgress(id, t); };
  hooks.on_end = [&](uint64_t id, SimTime t, int64_t bytes, bool error) {
    slo.OnRequestEnd(id, t, bytes, error);
  };
  hooks.on_tick = [&](SimTime now) { slo.CheckStalls(now); };
  const SpliceServerResult r = RunSpliceServer(cfg, hooks);
  EXPECT_TRUE(r.ok) << r.closure_err;
  EXPECT_GT(slo.Report(r.end_time).stall_flags, 0u);
}

// The timeline of a run pinned to the values of the pre-drawn-stream
// implementation: drawing the stream on demand and recycling request slots
// must not move a simulated nanosecond.  Six clients at 1500 req/s keep
// several requests queued per client, so the per-client FIFOs are exercised.
TEST_P(SpliceServerModes, GoldenTimeline) {
  SpliceServerConfig cfg = SmallConfig(GetParam());
  cfg.n_clients = 6;
  cfg.total_requests = 60;
  cfg.offered_rps = 1500.0;
  cfg.sync_workers = 3;
  cfg.ring_inflight = 4;
  cfg.seed = 11;
  // FNV-1a over every request's (id, latency, bytes, error), in end order.
  uint64_t digest = 1469598103934665603ull;
  auto mix = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  std::vector<SimTime> start(static_cast<size_t>(cfg.total_requests));
  SpliceServerHooks hooks;
  hooks.on_start = [&](uint64_t id, SimTime t) { start[id] = t; };
  hooks.on_end = [&](uint64_t id, SimTime t, int64_t bytes, bool error) {
    mix(id);
    mix(static_cast<uint64_t>(t - start[id]));
    mix(static_cast<uint64_t>(bytes));
    mix(error ? 1 : 0);
  };
  const SpliceServerResult r = RunSpliceServer(cfg, hooks);
  ASSERT_TRUE(r.ok) << r.closure_err;
  EXPECT_EQ(r.completed, 60u);

  struct Golden {
    SimTime end_time;
    uint64_t server_traps;
    uint64_t sigio_handled;
    uint64_t digest;
  };
  Golden want{};
  switch (GetParam()) {
    case SubmitMode::kSyncLoop:
      want = {409110550, 240, 0, 0x0cd25b619e78068bull};
      break;
    case SubmitMode::kFasyncSigio:
      want = {368952350, 846, 67, 0x0232519880cc30b0ull};
      break;
    case SubmitMode::kRing:
      want = {393485550, 288, 59, 0x8cb7c46df67b3139ull};
      break;
  }
  EXPECT_EQ(r.end_time, want.end_time);
  EXPECT_EQ(r.server_traps, want.server_traps);
  EXPECT_EQ(r.sigio_handled, want.sigio_handled);
  EXPECT_EQ(digest, want.digest);
}

// Request state is held only while a request is live: under capacity, four
// times the stream leaves the high-water of live requests where it was.
TEST_P(SpliceServerModes, LiveRequestsStayBoundedAsTheStreamGrows) {
  SpliceServerConfig cfg = SmallConfig(GetParam());
  cfg.offered_rps = 100.0;
  cfg.total_requests = 200;
  const SpliceServerResult one = RunSpliceServer(cfg);
  cfg.total_requests = 800;
  const SpliceServerResult four = RunSpliceServer(cfg);
  ASSERT_TRUE(one.ok) << one.closure_err;
  ASSERT_TRUE(four.ok) << four.closure_err;
  EXPECT_GT(one.peak_live_requests, 0u);
  EXPECT_LE(four.peak_live_requests * 2, one.peak_live_requests * 3);
  EXPECT_LE(four.peak_live_requests * 20, 800u);
}

// Every request is short-delivered: objects are a block and a half, and the
// filter reads the last byte of a full block, so each object's first chunk
// passes and the operator rejects the stream at its short second chunk.
// Each request ends through the server's error path, which unlinks it from
// its client's delivery FIFO, and its slot is recycled like a served one.
// (A filter that only drops chunks ends a splice cleanly, and a FASYNC
// server has no byte count to see it was short by.)
TEST_P(SpliceServerModes, FilteredStreamsErrorEveryRequest) {
  SpliceServerConfig cfg = SmallConfig(GetParam());
  cfg.object_bytes = kBlockSize + kBlockSize / 2;
  KopStage filter;
  filter.kind = KopStageKind::kFilter;
  filter.filter_mode = KopFilterMode::kKeepIfNe;
  filter.off = kBlockSize - 1;
  filter.len = 1;
  filter.arg = 0;
  cfg.kop_program.stages.push_back(filter);
  auto run = [&cfg](int64_t* received) {
    SpliceServerHooks hooks;
    hooks.on_progress = [received](uint64_t, SimTime, int64_t n) { *received += n; };
    return RunSpliceServer(cfg, hooks);
  };
  int64_t received = 0;
  const SpliceServerResult r = run(&received);
  EXPECT_EQ(r.errored, static_cast<uint64_t>(cfg.total_requests));
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.bytes, received);
  EXPECT_GT(received, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.closure_ok) << r.closure_err;
  EXPECT_GT(r.end_time, 0);
  EXPECT_GT(r.peak_live_requests, 0u);
  EXPECT_LE(r.peak_live_requests, static_cast<uint64_t>(cfg.n_clients));

  int64_t received_again = 0;
  const SpliceServerResult again = run(&received_again);
  EXPECT_EQ(again.end_time, r.end_time);
  EXPECT_EQ(again.errored, r.errored);
  EXPECT_EQ(again.bytes, r.bytes);
  EXPECT_EQ(received_again, received);
  EXPECT_EQ(again.server_traps, r.server_traps);
  EXPECT_EQ(again.server_cpu.process_work, r.server_cpu.process_work);
  EXPECT_EQ(again.peak_live_requests, r.peak_live_requests);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SpliceServerModes,
                         ::testing::Values(SubmitMode::kSyncLoop, SubmitMode::kFasyncSigio,
                                           SubmitMode::kRing),
                         [](const ::testing::TestParamInfo<SubmitMode>& info) {
                           switch (info.param) {
                             case SubmitMode::kSyncLoop:
                               return "SyncLoop";
                             case SubmitMode::kFasyncSigio:
                               return "FasyncSigio";
                             case SubmitMode::kRing:
                               return "Ring";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ikdp
