// Tests for the metrics layer: log2 histogram bucketing and quantiles, the
// named-metric registry, the interval pairer both trace consumers share, the
// online telemetry collector, and whole-kernel counter capture, which must
// be per run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/metrics/experiment.h"
#include "src/metrics/histogram.h"
#include "src/metrics/intervals.h"
#include "src/metrics/span_trace.h"
#include "src/metrics/telemetry.h"
#include "src/metrics/trace_export.h"
#include "src/os/kernel.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>(i * 13 + 1); }

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwo) {
  LatencyHistogram h;
  h.Add(0);
  h.Add(1);        // [1, 2)      -> bucket 1
  h.Add(2);        // [2, 4)      -> bucket 2
  h.Add(3);        // [2, 4)
  h.Add(1024);     // [1024, 2048) -> bucket 11
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(LatencyHistogram::BucketLo(11), 1024);
  EXPECT_EQ(LatencyHistogram::BucketHi(11), 2048);
  EXPECT_EQ(LatencyHistogram::BucketLo(0), 0);
}

TEST(LatencyHistogramTest, HugeValuesLandInTheLastBucket) {
  LatencyHistogram h;
  h.Add(INT64_MAX);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.max(), INT64_MAX);
  EXPECT_EQ(h.Quantile(1.0), INT64_MAX);
}

TEST(LatencyHistogramTest, QuantilesAreConservativeUpperBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.Add(100);  // bucket [64, 128)
  }
  for (int i = 0; i < 10; ++i) {
    h.Add(10000);  // bucket [8192, 16384)
  }
  // p50 falls in the low bucket: bound 127, capped at nothing below max.
  EXPECT_EQ(h.Quantile(0.5), 127);
  // p99 falls in the high bucket; the bound is capped at the true max.
  EXPECT_EQ(h.Quantile(0.99), 10000);
  EXPECT_EQ(h.Quantile(0.0), 127);  // lowest non-empty bucket
  // Empty histogram.
  LatencyHistogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0);
  EXPECT_EQ(empty.min(), 0);
  EXPECT_EQ(empty.max(), 0);
}

TEST(LatencyHistogramTest, PrintShowsDistribution) {
  LatencyHistogram h;
  h.Add(1000);
  h.Add(2000);
  std::ostringstream os;
  h.Print(os);
  EXPECT_NE(os.str().find("count 2"), std::string::npos);
  EXPECT_NE(os.str().find('*'), std::string::npos);
}

TEST(MetricsRegistryTest, CountersAndEnumerationOrder) {
  MetricsRegistry r;
  r.SetCounter("z.last", 3);
  r.SetCounter("a.first", 1);
  r.SetCounter("m.middle", 2);
  EXPECT_EQ(r.GetCounter("a.first"), 1);
  EXPECT_EQ(r.GetCounter("missing"), 0);
  EXPECT_FALSE(r.HasCounter("missing"));
  r.SetCounter("a.first", 10);  // overwrite
  EXPECT_EQ(r.GetCounter("a.first"), 10);
  // Deterministic name-ordered enumeration.
  std::vector<std::string> names;
  for (const auto& [name, v] : r.counters()) {
    names.push_back(name);
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.first");
  EXPECT_EQ(names[2], "z.last");
  // Histogram get-or-create returns a stable pointer.
  LatencyHistogram* h = r.Histogram("lat");
  h->Add(5);
  EXPECT_EQ(r.Histogram("lat"), h);
  EXPECT_EQ(r.Histogram("lat")->count(), 1u);
}

TEST(TelemetryCollectorTest, PairsIntervalsByKey) {
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);

  // Two interleaved syscalls on different pids.
  collector.Observe({1000, TraceKind::kSyscallEnter, 1, 0, "read"});
  collector.Observe({1500, TraceKind::kSyscallEnter, 2, 0, "write"});
  collector.Observe({4000, TraceKind::kSyscallExit, 1, 0, "read"});
  collector.Observe({9500, TraceKind::kSyscallExit, 2, 0, "write"});
  EXPECT_EQ(registry.Histogram("syscall.latency.read")->count(), 1u);
  EXPECT_EQ(registry.Histogram("syscall.latency.read")->sum(), 3000);
  EXPECT_EQ(registry.Histogram("syscall.latency.write")->sum(), 8000);

  // Run-queue wait.
  collector.Observe({100, TraceKind::kRunnable, 7, 0, "p"});
  collector.Observe({700, TraceKind::kDispatch, 7, 0, "p"});
  EXPECT_EQ(registry.Histogram("cpu.runq_wait")->sum(), 600);

  // Disk transfers keyed by (device, serial): same serial on two devices
  // must not collide.
  collector.Observe({0, TraceKind::kDiskDispatch, 1, 8192, "dev.a"});
  collector.Observe({100, TraceKind::kDiskDispatch, 1, 8192, "dev.b"});
  collector.Observe({5000, TraceKind::kDiskComplete, 1, 8192, "dev.a"});
  collector.Observe({5100, TraceKind::kDiskComplete, 1, 8192, "dev.b"});
  EXPECT_EQ(registry.Histogram("disk.service_time.dev.a")->sum(), 5000);
  EXPECT_EQ(registry.Histogram("disk.service_time.dev.b")->sum(), 5000);

  // Splice chunk latency keyed by (serial, index).
  collector.Observe({0, TraceKind::kSpliceRead, 1, 0, ""});
  collector.Observe({10, TraceKind::kSpliceRead, 1, 1, ""});
  collector.Observe({300, TraceKind::kSpliceChunk, 1, 1, ""});
  collector.Observe({500, TraceKind::kSpliceChunk, 1, 0, ""});
  const LatencyHistogram* chunk = registry.Histogram("splice.chunk_latency");
  EXPECT_EQ(chunk->count(), 2u);
  EXPECT_EQ(chunk->sum(), 290 + 500);
  EXPECT_EQ(collector.PendingIntervals(), 0u);

  // Unmatched ends are ignored, unmatched begins stay pending.
  collector.Observe({100, TraceKind::kDiskComplete, 9, 0, "dev.a"});
  collector.Observe({200, TraceKind::kSpliceRead, 2, 0, ""});
  EXPECT_EQ(collector.PendingIntervals(), 1u);
  EXPECT_EQ(registry.Histogram("disk.service_time.dev.a")->count(), 1u);
}

TEST(TelemetryCollectorTest, PairsRingOpsByRingAndCookie) {
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  // The same cookie on two different rings must not collide: the pairing
  // key is the (ring, cookie) composite.
  collector.Observe({100, TraceKind::kRingOpSubmit, 1, 7, ""});
  collector.Observe({200, TraceKind::kRingOpSubmit, 2, 7, ""});
  collector.Observe({900, TraceKind::kRingOpComplete, 1, 7, ""});
  collector.Observe({1200, TraceKind::kRingOpComplete, 2, 7, ""});
  const LatencyHistogram* lat = registry.Histogram("aio.completion_latency");
  EXPECT_EQ(lat->count(), 2u);
  EXPECT_EQ(lat->sum(), 800 + 1000);
  EXPECT_EQ(collector.PendingIntervals(), 0u);
  // SQ depth samples land straight in the histogram.
  collector.Observe({1300, TraceKind::kRingSqDepth, 1, 5, ""});
  EXPECT_EQ(registry.Histogram("aio.sq_depth")->count(), 1u);
  EXPECT_EQ(registry.Histogram("aio.sq_depth")->sum(), 5);
  // An unmatched completion is ignored; an unmatched submit stays pending.
  collector.Observe({1400, TraceKind::kRingOpComplete, 3, 9, ""});
  collector.Observe({1500, TraceKind::kRingOpSubmit, 3, 9, ""});
  EXPECT_EQ(lat->count(), 2u);
  EXPECT_EQ(collector.PendingIntervals(), 1u);
}

// --- the shared interval pairer ---

// Records every interval a pairer closes.
struct Closed {
  TraceRecord begin;
  TraceRecord end;
};

struct PairerProbe {
  void Observe(const TraceRecord& rec) {
    pairer.Observe(rec, [this](const TraceRecord& b, const TraceRecord& e) {
      closed.push_back({b, e});
    });
  }

  IntervalPairer pairer;
  std::vector<Closed> closed;
};

TEST(IntervalPairerTest, CompositeKeysKeepDevicesAndRingsApart) {
  PairerProbe p;
  // The same transfer serial on two devices, the same cookie on two rings.
  p.Observe({0, TraceKind::kDiskDispatch, 1, 8192, "dev.a"});
  p.Observe({100, TraceKind::kDiskDispatch, 1, 8192, "dev.b"});
  p.Observe({200, TraceKind::kRingOpSubmit, 1, 7, ""});
  p.Observe({300, TraceKind::kRingOpSubmit, 2, 7, ""});
  EXPECT_EQ(p.pairer.pending(), 4u);

  p.Observe({5100, TraceKind::kDiskComplete, 1, 8192, "dev.b"});
  p.Observe({900, TraceKind::kRingOpComplete, 2, 7, ""});
  ASSERT_EQ(p.closed.size(), 2u);
  EXPECT_EQ(p.closed[0].begin.time, 100);  // dev.b's dispatch, not dev.a's
  EXPECT_EQ(p.closed[0].end.time, 5100);
  EXPECT_EQ(p.closed[1].begin.time, 300);  // ring 2's submit, not ring 1's
  EXPECT_EQ(p.pairer.pending(), 2u);
}

TEST(IntervalPairerTest, LastBeginWinsAndUnmatchedEndsAreIgnored) {
  PairerProbe p;
  // A retried splice read re-records its index: the later begin replaces
  // the open one rather than pairing twice.
  p.Observe({100, TraceKind::kSpliceRead, 4, 0, ""});
  p.Observe({250, TraceKind::kSpliceRead, 4, 0, ""});
  EXPECT_EQ(p.pairer.pending(), 1u);
  p.Observe({900, TraceKind::kSpliceChunk, 4, 0, ""});
  ASSERT_EQ(p.closed.size(), 1u);
  EXPECT_EQ(p.closed[0].begin.time, 250);

  // Ends with no open begin close nothing and open nothing.
  p.Observe({950, TraceKind::kSpliceChunk, 4, 0, ""});
  p.Observe({960, TraceKind::kSyscallExit, 9, 0, "read"});
  p.Observe({970, TraceKind::kUdpSent, 3, 512, ""});
  EXPECT_EQ(p.closed.size(), 1u);
  EXPECT_EQ(p.pairer.pending(), 0u);
}

TEST(IntervalPairerTest, KopDropClosesOneReadWithoutError) {
  KspanCollector spans;
  SpanTraceBuilder builder(&spans);
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  for (const TraceRecord& r : {TraceRecord{0, TraceKind::kSpliceRead, 1, 0, ""},
                               TraceRecord{10, TraceKind::kSpliceRead, 1, 1, ""},
                               TraceRecord{400, TraceKind::kKopDrop, 1, 1, ""}}) {
    builder.Observe(r);
    collector.Observe(r);
  }
  // Only (1, 1) closed; (1, 0) is still waiting for its write.
  EXPECT_EQ(builder.PendingIntervals(), 1u);
  EXPECT_EQ(collector.PendingIntervals(), 1u);
  ASSERT_EQ(spans.spans().size(), 1u);
  EXPECT_EQ(spans.spans()[0].a, 1);  // chunk index
  EXPECT_EQ(spans.spans()[0].end, 400);
  EXPECT_FALSE(spans.spans()[0].error);
  // A dropped chunk was never written: no read-to-write latency sample.
  EXPECT_EQ(registry.Histogram("splice.chunk_latency")->count(), 0u);
}

TEST(IntervalPairerTest, SpliceDoneClosesOnlyItsOwnSerialsReads) {
  KspanCollector spans;
  SpanTraceBuilder builder(&spans);
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  for (const TraceRecord& r : {TraceRecord{0, TraceKind::kSpliceRead, 1, 0, ""},
                               TraceRecord{5, TraceKind::kSpliceRead, 1, 1, ""},
                               TraceRecord{10, TraceKind::kSpliceRead, 2, 0, ""},
                               TraceRecord{20, TraceKind::kSpliceRead, 3, 0, ""},
                               TraceRecord{700, TraceKind::kSpliceDone, 2, 0, ""},
                               TraceRecord{800, TraceKind::kSpliceDone, 1, 8192, ""}}) {
    builder.Observe(r);
    collector.Observe(r);
  }
  // Serials 1 and 2 finished with reads open; serial 3's read is untouched.
  EXPECT_EQ(builder.PendingIntervals(), 1u);
  EXPECT_EQ(collector.PendingIntervals(), 1u);
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.spans()[0].start, 10);  // serial 2 closed first
  EXPECT_EQ(spans.spans()[0].end, 700);
  EXPECT_EQ(spans.spans()[1].start, 0);
  EXPECT_EQ(spans.spans()[2].start, 5);
  for (const SpanRecord& s : spans.spans()) {
    EXPECT_EQ(std::string(s.name), "splice.chunk");
    EXPECT_TRUE(s.error) << "an abandoned read closes errored";
    EXPECT_GE(s.end, 700);
  }
  EXPECT_EQ(builder.derived().at("splice.chunk"), 3u);
  EXPECT_EQ(registry.Histogram("splice.chunk_latency")->count(), 0u);
}

// Both consumers pair one live Table 2 run (RZ56, scp, 1 MB) through the
// same pass, so every pair kind yields as many histogram samples as
// derived spans.
TEST(IntervalPairerTest, ConsumersAgreeOnEveryPairOfALiveTable2Run) {
  KspanCollector spans;
  Simulator scope;  // the span collector stays attached for this run only
  AttachKspan(&spans);
  TraceLog log(1 << 10);
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  collector.Attach(&log);
  SpanTraceBuilder builder(&spans);
  builder.Attach(&log);
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRz56;
  cfg.file_bytes = 1 << 20;
  cfg.use_splice = true;
  cfg.with_test_program = false;
  cfg.trace = &log;
  const ExperimentResult result = RunCopyExperiment(cfg);
  ASSERT_TRUE(result.ok);

  auto samples = [&registry](const std::string& prefix) {
    uint64_t n = 0;
    for (const auto& [name, h] : registry.histograms()) {
      if (name.rfind(prefix, 0) == 0) {
        n += h.count();
      }
    }
    return n;
  };
  const std::map<std::string, uint64_t>& derived = builder.derived();
  EXPECT_EQ(samples("syscall.latency."), derived.at("syscall"));
  EXPECT_EQ(samples("cpu.runq_wait"), derived.at("sched.runq"));
  EXPECT_EQ(samples("disk.service_time."), derived.at("disk.xfer"));
  EXPECT_EQ(samples("splice.chunk_latency"), derived.at("splice.chunk"));
  EXPECT_EQ(derived.at("splice.chunk"), static_cast<uint64_t>((1 << 20) / kBlockSize));
  EXPECT_EQ(collector.PendingIntervals(), builder.PendingIntervals());
  std::string err;
  EXPECT_TRUE(spans.CheckBalanced(&err)) << err;
}

TEST(TraceExportTest, JsonEscapeNeutralizesMetacharacters) {
  EXPECT_EQ(JsonEscape("plain.name-42"), "plain.name-42");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(TraceExportTest, EvilDeviceNamesSurviveExportRoundTrip) {
  // A device (or metric) name containing JSON metacharacters must never
  // produce unparseable output from either exporter.
  const std::string evil = "rz56\"\\evil\nname";

  MetricsRegistry registry;
  registry.SetCounter("disk." + evil + ".requests", 17);
  registry.Histogram("disk.service_time." + evil)->Add(1234);
  std::ostringstream reg_os;
  ExportRegistryJson(registry, reg_os);
  JsonValue reg_json;
  ASSERT_TRUE(ParseJson(reg_os.str(), &reg_json)) << reg_os.str();
  const JsonValue* counters = reg_json.Get("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* evil_counter = counters->Get("disk." + evil + ".requests");
  ASSERT_NE(evil_counter, nullptr);  // the name round-trips intact
  EXPECT_EQ(evil_counter->number, 17.0);

  TraceLog log(1 << 10);
  log.Record(100, TraceKind::kDiskDispatch, 1, 8192, evil.c_str());
  log.Record(500, TraceKind::kDiskComplete, 1, 8192, evil.c_str());
  std::ostringstream trace_os;
  ExportChromeTrace(log, trace_os);
  JsonValue trace_json;
  ASSERT_TRUE(ParseJson(trace_os.str(), &trace_json)) << trace_os.str();
  const JsonValue* events = trace_json.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_FALSE(events->items.empty());
}

TEST(TelemetryCollectorTest, FeedsFromLiveKernelRun) {
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  DiskDriver disk(&kernel.cpu(), &sim, Rz56Params());
  RamDisk ram(&kernel.cpu(), 16 << 20);
  FileSystem* src = kernel.MountFs(&disk, "d");
  kernel.MountFs(&ram, "r");
  src->CreateFileInstant("f", 4 * kBlockSize, Fill);

  TraceLog log(1 << 14);
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  collector.Attach(&log);
  kernel.AttachTrace(&log);

  kernel.Spawn("p", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "d:f", kOpenRead);
    const int d = co_await kernel.Open(p, "r:g", kOpenWrite | kOpenCreate);
    co_await kernel.Splice(p, s, d, kSpliceEof);
  });
  sim.Run();

  CaptureKernelCounters(&registry, kernel);

  // Online histograms fed through the observer.
  EXPECT_EQ(registry.Histogram("splice.chunk_latency")->count(), 4u);
  EXPECT_GE(registry.Histogram("disk.service_time.RZ56")->count(), 1u);
  EXPECT_GE(registry.Histogram("syscall.latency.open")->count(), 2u);
  EXPECT_GE(registry.Histogram("cpu.runq_wait")->count(), 1u);
  // Histogram time sum must agree with the disk's own busy-time ledger.
  EXPECT_EQ(registry.Histogram("disk.service_time.RZ56")->sum(),
            registry.GetCounter("disk.d.busy_time_ns"));

  // Sampled counters mirror the kernel's stats structs.
  EXPECT_EQ(registry.GetCounter("sys.syscalls"),
            static_cast<int64_t>(kernel.stats().syscalls));
  EXPECT_EQ(registry.GetCounter("splice.total_bytes"), 4 * kBlockSize);
  EXPECT_EQ(registry.GetCounter("cache.misses"),
            static_cast<int64_t>(kernel.cache().stats().misses));
  EXPECT_EQ(registry.GetCounter("disk.d.requests"),
            static_cast<int64_t>(disk.stats().requests));
  EXPECT_GT(registry.GetCounter("cpu.process_work_ns"), 0);
  // The RAM-disk mount has no scheduler: no counters under its prefix.
  EXPECT_FALSE(registry.HasCounter("disk.r.requests"));
}

// --- counters are per run ---

struct CopyRun {
  ExperimentResult result;
  std::string registry;  // the captured registry as ikdp.telemetry.v1 JSON
  int64_t spin_acquisitions = 0;
  int64_t order_edges = 0;
};

// One 1 MB RZ56 scp run with the kernel counters captured at its end, under
// lockdep collect mode so lock.order_edges counts a real graph.
CopyRun RunScp() {
  Simulator scope;  // holds collect mode for this run only
  Lockdep().SetMode(LockdepValidator::Mode::kCollect);
  MetricsRegistry registry;
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRz56;
  cfg.file_bytes = 1 << 20;
  cfg.use_splice = true;
  cfg.inspect = [&registry](Kernel& kernel) { CaptureKernelCounters(&registry, kernel); };
  CopyRun run;
  run.result = RunCopyExperiment(cfg);
  std::ostringstream os;
  ExportRegistryJson(registry, os);
  run.registry = os.str();
  run.spin_acquisitions = registry.GetCounter("lock.spin_acquisitions");
  run.order_edges = registry.GetCounter("lock.order_edges");
  return run;
}

void ExpectSameRun(const CopyRun& a, const CopyRun& b) {
  EXPECT_TRUE(a.result.ok);
  EXPECT_TRUE(b.result.ok);
  EXPECT_EQ(a.result.bytes, b.result.bytes);
  EXPECT_EQ(a.result.elapsed_s, b.result.elapsed_s);
  EXPECT_EQ(a.result.throughput_kbs, b.result.throughput_kbs);
  EXPECT_EQ(a.result.test_ops, b.result.test_ops);
  EXPECT_EQ(a.result.slowdown, b.result.slowdown);
  EXPECT_EQ(a.result.cpu.process_work, b.result.cpu.process_work);
  EXPECT_EQ(a.result.cpu.interrupt_work, b.result.cpu.interrupt_work);
  EXPECT_EQ(a.result.cpu.switches, b.result.cpu.switches);
  EXPECT_EQ(a.result.cache_hits, b.result.cache_hits);
  EXPECT_EQ(a.result.cache_misses, b.result.cache_misses);
  EXPECT_EQ(a.result.idle_fraction, b.result.idle_fraction);
  EXPECT_EQ(a.registry, b.registry);
}

TEST(PerRunCountersTest, BackToBackRunsCaptureByteIdenticalRegistries) {
  const CopyRun first = RunScp();
  const CopyRun second = RunScp();
  EXPECT_GT(first.spin_acquisitions, 0);
  EXPECT_GT(first.order_edges, 0);
  ExpectSameRun(first, second);
}

TEST(PerRunCountersTest, RunsOnTwoHostThreadsMatchASequentialRun) {
  const CopyRun sequential = RunScp();
  CopyRun a;
  CopyRun b;
  std::thread ta([&a] { a = RunScp(); });
  std::thread tb([&b] { b = RunScp(); });
  ta.join();
  tb.join();
  ExpectSameRun(sequential, a);
  ExpectSameRun(sequential, b);
}

}  // namespace
}  // namespace ikdp
