// Tests for the ktrace-style event log: ring semantics (including wrap
// boundaries), kernel hook coverage (syscalls, dispatch, sleep/wakeup,
// interrupts, splice lifecycle and flow control, buffer cache, disk
// scheduler, callouts), ordering, the off-by-default guarantee, and the
// JSON exporters' round-trip schema.

#include <gtest/gtest.h>
#include "src/dev/disk_driver.h"
#include "src/hw/disk.h"

#include <sstream>

#include "src/dev/ram_disk.h"
#include "src/metrics/trace_export.h"
#include "src/os/kernel.h"
#include "src/sim/trace.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>(i * 31); }

TEST(TraceLogTest, RecordsAndSnapshotsInOrder) {
  TraceLog log(16);
  log.Record(100, TraceKind::kDispatch, 1);
  log.Record(200, TraceKind::kSleep, 1, 20);
  log.Record(300, TraceKind::kWakeup, 1);
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].time, 100);
  EXPECT_EQ(snap[1].kind, TraceKind::kSleep);
  EXPECT_EQ(snap[1].b, 20);
  EXPECT_EQ(snap[2].time, 300);
  EXPECT_EQ(log.total(), 3u);
}

TEST(TraceLogTest, RingWrapsKeepingNewest) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(i, TraceKind::kDispatch, i);
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].a, 6);  // oldest retained
  EXPECT_EQ(snap[3].a, 9);  // newest
  EXPECT_EQ(log.total(), 10u);
}

TEST(TraceLogTest, ExactlyFullRingDoesNotWrap) {
  TraceLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.Record(i, TraceKind::kDispatch, i);
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].a, 0);  // nothing evicted yet
  EXPECT_EQ(snap[3].a, 3);
  EXPECT_EQ(log.total(), 4u);
}

TEST(TraceLogTest, OnePastCapacityEvictsExactlyTheOldest) {
  TraceLog log(4);
  for (int i = 0; i < 5; ++i) {
    log.Record(i, TraceKind::kDispatch, i);
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].a, 1);
  EXPECT_EQ(snap[3].a, 4);
}

TEST(TraceLogTest, WrapAtExactMultipleOfCapacity) {
  // After k * capacity records the write cursor is back at slot 0; the
  // snapshot rotation must still start from the oldest retained record.
  TraceLog log(4);
  for (int i = 0; i < 12; ++i) {
    log.Record(i, TraceKind::kDispatch, i);
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<size_t>(i)].a, 8 + i);  // strictly ascending, oldest first
  }
  EXPECT_EQ(log.total(), 12u);
}

TEST(TraceLogTest, FilterAfterWrapKeepsOrder) {
  TraceLog log(6);
  for (int i = 0; i < 10; ++i) {
    log.Record(i, i % 2 == 0 ? TraceKind::kDispatch : TraceKind::kWakeup, i);
  }
  const auto only = log.Filter(
      [](const TraceRecord& r) { return r.kind == TraceKind::kDispatch; });
  ASSERT_EQ(only.size(), 3u);  // 4, 6, 8 retained
  EXPECT_EQ(only[0].a, 4);
  EXPECT_EQ(only[1].a, 6);
  EXPECT_EQ(only[2].a, 8);
}

TEST(TraceLogTest, ObserverSeesEveryRecordEvenAfterEviction) {
  TraceLog log(2);
  int seen = 0;
  int64_t last = -1;
  log.AddObserver([&](const TraceRecord& r) {
    ++seen;
    last = r.a;
  });
  for (int i = 0; i < 7; ++i) {
    log.Record(i, TraceKind::kDispatch, i);
  }
  EXPECT_EQ(seen, 7);  // eviction does not hide records from the tap
  EXPECT_EQ(last, 6);
  EXPECT_EQ(log.Snapshot().size(), 2u);
}

TEST(TraceLogTest, FilterSelects) {
  TraceLog log(16);
  log.Record(1, TraceKind::kDispatch, 1);
  log.Record(2, TraceKind::kInterrupt, 500);
  log.Record(3, TraceKind::kDispatch, 2);
  const auto only = log.Filter(
      [](const TraceRecord& r) { return r.kind == TraceKind::kDispatch; });
  ASSERT_EQ(only.size(), 2u);
  EXPECT_EQ(only[1].a, 2);
}

TEST(TraceLogTest, DumpIsHumanReadable) {
  TraceLog log(8);
  log.Record(Milliseconds(5), TraceKind::kSyscallEnter, 7, 0, "read");
  std::ostringstream os;
  log.Dump(os);
  EXPECT_NE(os.str().find("syscall-enter"), std::string::npos);
  EXPECT_NE(os.str().find("read"), std::string::npos);
}

class TraceKernelTest : public ::testing::Test {
 protected:
  TraceKernelTest()
      : kernel_(&sim_, DecStation5000Costs()),
        rama_(&kernel_.cpu(), 16 << 20),
        ramb_(&kernel_.cpu(), 16 << 20) {
    fsa_ = kernel_.MountFs(&rama_, "a");
    fsb_ = kernel_.MountFs(&ramb_, "b");
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk rama_;
  RamDisk ramb_;
  FileSystem* fsa_;
  FileSystem* fsb_;
};

TEST_F(TraceKernelTest, OffByDefaultRecordsNothing) {
  fsa_->CreateFileInstant("f", 4 * kBlockSize, Fill);
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    const int s = co_await kernel_.Open(p, "a:f", kOpenRead);
    const int d = co_await kernel_.Open(p, "b:g", kOpenWrite | kOpenCreate);
    co_await kernel_.Splice(p, s, d, kSpliceEof);
  });
  sim_.Run();
  EXPECT_EQ(kernel_.cpu().trace(), nullptr);  // nothing attached, nothing to record
}

TEST_F(TraceKernelTest, CapturesSpliceLifecycle) {
  TraceLog log(8192);
  kernel_.cpu().set_trace(&log);
  constexpr int64_t kBytes = 6 * kBlockSize;
  fsa_->CreateFileInstant("f", kBytes, Fill);
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    const int s = co_await kernel_.Open(p, "a:f", kOpenRead);
    const int d = co_await kernel_.Open(p, "b:g", kOpenWrite | kOpenCreate);
    co_await kernel_.Splice(p, s, d, kSpliceEof);
  });
  sim_.Run();

  const auto starts =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kSpliceStart; });
  const auto chunks =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kSpliceChunk; });
  const auto dones =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kSpliceDone; });
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(chunks.size(), 6u);  // one per block
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].b, kBytes);
  // Lifecycle ordering: start before every chunk, done after the last.
  EXPECT_LE(starts[0].time, chunks.front().time);
  EXPECT_LE(chunks.back().time, dones[0].time);
  // All records share the descriptor serial.
  for (const auto& c : chunks) {
    EXPECT_EQ(c.a, starts[0].a);
  }
}

TEST_F(TraceKernelTest, CapturesSyscallsAndScheduling) {
  TraceLog log(8192);
  kernel_.cpu().set_trace(&log);
  fsa_->CreateFileInstant("f", 2 * kBlockSize, Fill);
  kernel_.Spawn("reader", [&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "a:f", kOpenRead);
    std::vector<uint8_t> buf;
    co_await kernel_.Read(p, fd, kBlockSize, &buf);
    co_await kernel_.Close(p, fd);
  });
  sim_.Run();

  auto by_tag = [&](const char* tag, TraceKind kind) {
    return log.Filter([tag, kind](const TraceRecord& r) {
      return r.kind == kind && std::string(r.tag) == tag;
    });
  };
  EXPECT_EQ(by_tag("open", TraceKind::kSyscallEnter).size(), 1u);
  EXPECT_EQ(by_tag("read", TraceKind::kSyscallEnter).size(), 1u);
  EXPECT_EQ(by_tag("read", TraceKind::kSyscallExit).size(), 1u);
  EXPECT_EQ(by_tag("close", TraceKind::kSyscallEnter).size(), 1u);
  // At least one dispatch (the process starting).
  EXPECT_GE(
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kDispatch; }).size(),
      1u);
  // Enter precedes exit for the read call.
  const auto enter = by_tag("read", TraceKind::kSyscallEnter)[0];
  const auto exit_rec = by_tag("read", TraceKind::kSyscallExit)[0];
  EXPECT_LT(enter.time, exit_rec.time);
}

TEST_F(TraceKernelTest, CapturesInterruptsOnScsiPath) {
  TraceLog log(8192);
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  kernel.cpu().set_trace(&log);
  DiskDriver scsi(&kernel.cpu(), &sim, Rz56Params());
  FileSystem* fs = kernel.MountFs(&scsi, "d");
  fs->CreateFileInstant("f", 2 * kBlockSize, Fill);
  kernel.Spawn("p", [&](Process& p) -> Task<> {
    const int fd = co_await kernel.Open(p, "d:f", kOpenRead);
    std::vector<uint8_t> buf;
    co_await kernel.Read(p, fd, 2 * kBlockSize, &buf);
  });
  sim.Run();
  const auto intrs =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kInterrupt; });
  EXPECT_GE(intrs.size(), 2u);  // one per disk completion at least
  for (const auto& r : intrs) {
    EXPECT_GT(r.a, 0);  // charged duration recorded
  }
}

TEST_F(TraceKernelTest, CapturesBufferCacheAndSpliceFlowControl) {
  TraceLog log(1 << 14);
  kernel_.AttachTrace(&log);
  constexpr int64_t kBytes = 8 * kBlockSize;
  fsa_->CreateFileInstant("f", kBytes, Fill);
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    const int s = co_await kernel_.Open(p, "a:f", kOpenRead);
    const int d = co_await kernel_.Open(p, "b:g", kOpenWrite | kOpenCreate);
    co_await kernel_.Splice(p, s, d, kSpliceEof);
    // Re-read the source so the cache sees hits on warm blocks.
    co_await kernel_.Lseek(p, s, 0);
    std::vector<uint8_t> buf;
    co_await kernel_.Read(p, s, kBlockSize, &buf);
  });
  sim_.Run();

  auto count = [&](TraceKind k) {
    return log.Filter([k](const TraceRecord& r) { return r.kind == k; }).size();
  };
  // Cold splice reads miss, the re-read hits.
  EXPECT_GE(count(TraceKind::kBreadMiss), 8u);
  EXPECT_GE(count(TraceKind::kBreadHit), 1u);
  // Every issued read is recorded and pairs with exactly one chunk
  // completion by (serial, index).
  const auto reads =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kSpliceRead; });
  const auto chunks =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kSpliceChunk; });
  ASSERT_EQ(reads.size(), 8u);
  ASSERT_EQ(chunks.size(), 8u);
  for (size_t i = 0; i < reads.size(); ++i) {
    bool paired = false;
    for (const auto& c : chunks) {
      if (c.a == reads[i].a && c.b == reads[i].b) {
        EXPECT_GE(c.time, reads[i].time);
        paired = true;
      }
    }
    EXPECT_TRUE(paired) << "chunk " << reads[i].b << " never completed";
  }
  // Watermark refills: every low-water crossing is followed by a refill
  // record with the batch size.
  EXPECT_EQ(count(TraceKind::kSpliceLowWater), count(TraceKind::kSpliceRefill));
  // The splice machinery runs off the callout table.
  EXPECT_GE(count(TraceKind::kCalloutArm), 1u);
  EXPECT_GE(count(TraceKind::kSoftclockRun), 1u);
}

TEST_F(TraceKernelTest, RunnablePairsWithDispatch) {
  TraceLog log(1 << 14);
  kernel_.AttachTrace(&log);
  fsa_->CreateFileInstant("f", 2 * kBlockSize, Fill);
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "a:f", kOpenRead);
    std::vector<uint8_t> buf;
    co_await kernel_.Read(p, fd, kBlockSize, &buf);
  });
  sim_.Run();
  const auto runnable =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kRunnable; });
  ASSERT_GE(runnable.size(), 1u);
  // Each runnable record is followed by a dispatch of the same pid at a
  // time >= the runnable time.
  for (const auto& r : runnable) {
    const auto later = log.Filter([&](const TraceRecord& d) {
      return d.kind == TraceKind::kDispatch && d.a == r.a && d.time >= r.time;
    });
    EXPECT_GE(later.size(), 1u) << "pid " << r.a << " made runnable but never dispatched";
  }
}

TEST(TraceDiskTest, DispatchCompletePairs) {
  TraceLog log(4096);
  Simulator sim;
  DiskModel disk(&sim, Rz56Params());
  disk.set_trace(&log);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    DiskRequest r;
    r.offset = i * 8192;
    r.nbytes = 8192;
    r.is_read = true;
    r.done = [&done](bool ok) { done += ok ? 1 : 0; };
    disk.Submit(std::move(r));
  }
  sim.Run();
  ASSERT_EQ(done, 4);
  const auto dispatches =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kDiskDispatch; });
  const auto completes =
      log.Filter([](const TraceRecord& r) { return r.kind == TraceKind::kDiskComplete; });
  // One transfer per request.
  ASSERT_EQ(dispatches.size(), 4u);
  ASSERT_EQ(completes.size(), 4u);
  for (size_t i = 0; i < dispatches.size(); ++i) {
    // Serial and byte totals match within the pair; completion is later.
    EXPECT_EQ(dispatches[i].a, completes[i].a);
    EXPECT_EQ(dispatches[i].b, completes[i].b);
    EXPECT_EQ(dispatches[i].b, 8192);
    EXPECT_LT(dispatches[i].time, completes[i].time);
  }
}

// --- exporter round-trips ---

TEST(TraceExportTest, ChromeTraceParsesAndHasExpectedShape) {
  TraceLog log(64);
  log.Record(1000, TraceKind::kSyscallEnter, 7, 0, "read");
  log.Record(5000, TraceKind::kSyscallExit, 7, 0, "read");
  log.Record(6000, TraceKind::kInterrupt, 1500);
  log.Record(7000, TraceKind::kDiskDispatch, 1, 8192, "RZ56");
  log.Record(9000, TraceKind::kDiskComplete, 1, 8192, "RZ56");
  log.Record(9500, TraceKind::kSpliceStart, 1, 4);
  log.Record(9900, TraceKind::kSpliceDone, 1, 32768);
  std::ostringstream os;
  ExportChromeTrace(log, os);

  JsonValue root;
  ASSERT_TRUE(ParseJson(os.str(), &root)) << os.str();
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());

  int begins = 0;
  int ends = 0;
  int metas = 0;
  bool disk_slice = false;
  for (const JsonValue& ev : events->items) {
    const std::string& ph = ev.Get("ph")->str;
    if (ph == "B") {
      ++begins;
      if (ev.Get("cat")->str == "syscall") {
        EXPECT_EQ(ev.Get("name")->str, "read");
        EXPECT_EQ(ev.Get("ts")->number, 1.0);  // 1000 ns = 1 us
      }
    }
    if (ph == "E") {
      ++ends;
    }
    if (ph == "M") {
      ++metas;
    }
    if (ph == "X") {
      EXPECT_EQ(ev.Get("dur")->number, 1.5);  // 1500 ns
    }
    const JsonValue* name = ev.Get("name");
    if (name != nullptr && name->str.find("xfer") != std::string::npos) {
      disk_slice = true;
    }
  }
  EXPECT_EQ(begins, 2);  // syscall B + disk B
  EXPECT_EQ(ends, 2);
  EXPECT_GE(metas, 2);  // process_name + thread names
  EXPECT_TRUE(disk_slice);
}

TEST(TraceExportTest, RegistryJsonRoundTripsSchema) {
  MetricsRegistry registry;
  registry.SetCounter("cache.hits", 42);
  registry.SetCounter("cache.misses", 7);
  LatencyHistogram* h = registry.Histogram("disk.service_time.RZ56");
  h->Add(1000);
  h->Add(3000);
  h->Add(1000000);
  std::ostringstream os;
  ExportRegistryJson(registry, os);

  JsonValue root;
  ASSERT_TRUE(ParseJson(os.str(), &root)) << os.str();
  ASSERT_NE(root.Get("schema"), nullptr);
  EXPECT_EQ(root.Get("schema")->str, kTelemetrySchema);

  const JsonValue* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Get("cache.hits")->number, 42.0);
  EXPECT_EQ(counters->Get("cache.misses")->number, 7.0);

  const JsonValue* hists = root.Get("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* hj = hists->Get("disk.service_time.RZ56");
  ASSERT_NE(hj, nullptr);
  EXPECT_EQ(hj->Get("count")->number, 3.0);
  EXPECT_EQ(hj->Get("sum")->number, 1004000.0);
  EXPECT_EQ(hj->Get("min")->number, 1000.0);
  EXPECT_EQ(hj->Get("max")->number, 1000000.0);
  const JsonValue* buckets = hj->Get("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->IsArray());
  double total = 0;
  for (const JsonValue& b : buckets->items) {
    total += b.Get("count")->number;
    EXPECT_LT(b.Get("lo")->number, b.Get("hi")->number);
  }
  EXPECT_EQ(total, 3.0);  // bucket counts cover every sample
}

TEST(TraceExportTest, ExportAfterRingWrapStaysWellFormed) {
  TraceLog log(8);
  for (int i = 0; i < 40; ++i) {
    log.Record(i * 100, TraceKind::kDispatch, i % 3, 0, "p");
  }
  std::ostringstream os;
  ExportChromeTrace(log, os);
  JsonValue root;
  ASSERT_TRUE(ParseJson(os.str(), &root));
  // Retained events only, all with ascending timestamps.
  const JsonValue* events = root.Get("traceEvents");
  double prev = -1;
  int data_events = 0;
  for (const JsonValue& ev : events->items) {
    if (ev.Get("ph")->str != "i") {
      continue;
    }
    ++data_events;
    EXPECT_GE(ev.Get("ts")->number, prev);
    prev = ev.Get("ts")->number;
  }
  EXPECT_EQ(data_events, 8);
}

TEST(TraceExportTest, JsonParserRejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v));
  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson("{\"a\":}", &v));
  EXPECT_FALSE(ParseJson("[1,2", &v));
  EXPECT_FALSE(ParseJson("\"unterminated", &v));
  EXPECT_FALSE(ParseJson("{} trailing", &v));
  EXPECT_TRUE(ParseJson("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null,\"d\":true}}", &v));
  EXPECT_EQ(v.Get("a")->items[2].number, -300.0);
  EXPECT_TRUE(ParseJson("\"esc \\\" \\\\ \\n \\u0041\"", &v));
  EXPECT_EQ(v.str, "esc \" \\ \n A");
}

}  // namespace
}  // namespace ikdp
