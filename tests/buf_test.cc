// Unit tests for the buffer cache against real device drivers (RAM disk and
// SCSI disk driver), covering the classic blocking API, the splice
// (non-blocking) API, reuse/victim behaviour, and content integrity.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/buf/buf.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

std::vector<uint8_t> Pattern(int64_t blkno) {
  std::vector<uint8_t> v(kBlockSize);
  for (int64_t i = 0; i < kBlockSize; ++i) {
    v[static_cast<size_t>(i)] = static_cast<uint8_t>((blkno * 37 + i) & 0xff);
  }
  return v;
}

// A copy of what the device stores in block `blkno`.
std::vector<uint8_t> Stored(const BlockDevice& dev, int64_t blkno) {
  const std::span<const uint8_t> blk = dev.PeekBlock(blkno);
  return {blk.begin(), blk.end()};
}

class BufTest : public ::testing::Test {
 protected:
  BufTest()
      : cpu_(&sim_, DecStation5000Costs()),
        cache_(&cpu_, 16),
        ram_(&cpu_, 4 << 20),
        scsi_(&cpu_, &sim_, Rz56Params()) {}

  // Runs `body` as a process and the simulation to completion.
  void RunProc(std::function<Task<>(Process&)> body) {
    cpu_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(cpu_.alive(), 0) << "process deadlocked";
  }

  Simulator sim_;
  CpuSystem cpu_;
  BufferCache cache_;
  RamDisk ram_;
  DiskDriver scsi_;
};

TEST_F(BufTest, BreadReturnsDeviceContents) {
  ram_.PokeBlock(3, Pattern(3));
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &ram_, 3);
    EXPECT_TRUE(b->Has(kBufDone));
    EXPECT_EQ(*b->data, Pattern(3));
    cache_.Brelse(b);
  });
  EXPECT_EQ(cache_.stats().misses, 1u);
}

TEST_F(BufTest, SecondBreadHitsCache) {
  ram_.PokeBlock(5, Pattern(5));
  RunProc([&](Process& p) -> Task<> {
    Buf* a = co_await cache_.Bread(p, &ram_, 5);
    cache_.Brelse(a);
    Buf* b = co_await cache_.Bread(p, &ram_, 5);
    EXPECT_EQ(a, b);  // same frame
    cache_.Brelse(b);
  });
  EXPECT_EQ(cache_.stats().hits, 1u);
  EXPECT_EQ(cache_.stats().misses, 1u);
  EXPECT_EQ(ram_.stats().reads, 1u);  // device touched once
}

TEST_F(BufTest, BreadFromScsiChargesWallClockTime) {
  scsi_.PokeBlock(10, Pattern(10));
  SimTime done = -1;
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &scsi_, 10);
    EXPECT_EQ(*b->data, Pattern(10));
    cache_.Brelse(b);
    done = sim_.Now();
  });
  // At least a rotation plus media transfer.
  EXPECT_GT(done, Milliseconds(8));
}

TEST_F(BufTest, BwriteRoundTripsThroughDevice) {
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &ram_, 7);
    MakeWritable(b->data) = Pattern(7);
    co_await cache_.Bwrite(p, b);
  });
  EXPECT_EQ(Stored(ram_, 7), Pattern(7));
}

TEST_F(BufTest, BdwriteDefersDeviceWrite) {
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &ram_, 9);
    MakeWritable(b->data) = Pattern(9);
    cache_.Bdwrite(p, b);
    EXPECT_EQ(ram_.stats().writes, 0u);  // nothing hit the device yet
    // Re-reading sees the dirty cached data.
    Buf* again = co_await cache_.Bread(p, &ram_, 9);
    EXPECT_EQ(*again->data, Pattern(9));
    cache_.Brelse(again);
  });
  EXPECT_EQ(ram_.stats().reads, 0u);  // pure cache hit
}

TEST_F(BufTest, FlushDevWritesDelayedBlocksAndWaits) {
  RunProc([&](Process& p) -> Task<> {
    for (int64_t i = 0; i < 5; ++i) {
      Buf* b = co_await cache_.GetBlk(p, &scsi_, 100 + i);
      MakeWritable(b->data) = Pattern(100 + i);
      cache_.Bdwrite(p, b);
    }
    co_await cache_.FlushDev(p, &scsi_);
    EXPECT_EQ(cache_.PendingWrites(&scsi_), 0);
  });
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(Stored(scsi_, 100 + i), Pattern(100 + i));
  }
}

TEST_F(BufTest, LruVictimIsFlushedWhenDirty) {
  // Dirty more blocks than the cache holds; reuse must write victims out.
  RunProc([&](Process& p) -> Task<> {
    for (int64_t i = 0; i < 32; ++i) {  // cache has 16 buffers
      Buf* b = co_await cache_.GetBlk(p, &ram_, i);
      MakeWritable(b->data) = Pattern(i);
      cache_.Bdwrite(p, b);
    }
    co_await cache_.FlushDev(p, &ram_);
  });
  EXPECT_GT(cache_.stats().delwri_flushes, 0u);
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(Stored(ram_, i), Pattern(i)) << "block " << i;
  }
}

TEST_F(BufTest, GetBlkSleepsWhenAllBuffersBusy) {
  // Hold every buffer busy, then have a second process try to get one.
  std::vector<Buf*> held;
  SimTime got_at = -1;
  cpu_.Spawn("holder", [&](Process& p) -> Task<> {
    for (int64_t i = 0; i < 16; ++i) {
      Buf* b = co_await cache_.GetBlk(p, &ram_, i);
      held.push_back(b);
    }
    // Give the waiter time to block, then release one buffer.
    co_await cpu_.Sleep(p, &held, kPriWait);
    cache_.Brelse(held[0]);
  });
  cpu_.Spawn("waiter", [&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &ram_, 99);
    got_at = sim_.Now();
    cache_.Brelse(b);
  });
  sim_.After(Milliseconds(50), [&] { cpu_.Wakeup(&held); });
  sim_.Run();
  EXPECT_GE(got_at, Milliseconds(50));
}

TEST_F(BufTest, WantedBufferWakesSecondReader) {
  scsi_.PokeBlock(42, Pattern(42));
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    cpu_.Spawn("reader", [&](Process& p) -> Task<> {
      Buf* b = co_await cache_.Bread(p, &scsi_, 42);
      EXPECT_EQ(*b->data, Pattern(42));
      cache_.Brelse(b);
      ++done;
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(scsi_.stats().requests, 1u);  // one physical read, one hit
}

TEST_F(BufTest, BusyBlockRaceSleepsOnWantedAndWakes) {
  // Two processes race on one cached block: the holder keeps it busy while
  // the waiter's getblk must set kBufWanted, sleep, and wake on Brelse —
  // without touching the device again.
  ram_.PokeBlock(11, Pattern(11));
  SimTime release_at = -1;
  SimTime got_at = -1;
  int holder_chan = 0;
  cpu_.Spawn("holder", [&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &ram_, 11);
    co_await cpu_.Sleep(p, &holder_chan, kPriWait);  // hold busy until woken
    EXPECT_TRUE(b->Has(kBufWanted)) << "waiter should have marked the buffer";
    release_at = sim_.Now();
    cache_.Brelse(b);
  });
  cpu_.Spawn("waiter", [&](Process& p) -> Task<> {
    co_await cpu_.Use(p, Microseconds(100));  // let the holder acquire first
    Buf* b = co_await cache_.Bread(p, &ram_, 11);
    got_at = sim_.Now();
    EXPECT_EQ(*b->data, Pattern(11));
    cache_.Brelse(b);
  });
  sim_.After(Milliseconds(20), [&] { cpu_.Wakeup(&holder_chan); });
  sim_.Run();
  EXPECT_EQ(cpu_.alive(), 0) << "a process deadlocked";
  EXPECT_GE(release_at, Milliseconds(20));
  EXPECT_GE(got_at, release_at);
  EXPECT_EQ(ram_.stats().reads, 1u);  // the waiter hit the cache
}

TEST_F(BufTest, DelwriVictimIsWrittenBeforeFrameReuse) {
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &ram_, 0);
    MakeWritable(b->data) = Pattern(0);
    cache_.Bdwrite(p, b);
    Buf* victim = b;
    bool reused = false;
    // Cycle more fresh blocks than there are clean frames: the dirty buffer
    // reaches the LRU head, is flushed, re-enters the freelist clean, and
    // only then may its frame be reused.
    for (int64_t i = 100; i < 132; ++i) {
      Buf* f = co_await cache_.GetBlk(p, &ram_, i);
      if (f == victim) {
        reused = true;
        EXPECT_EQ(ram_.stats().writes, 1u) << "flush must precede reuse";
        EXPECT_EQ(Stored(ram_, 0), Pattern(0));
      }
      cache_.Brelse(f);
    }
    EXPECT_TRUE(reused);
  });
  EXPECT_GT(cache_.stats().delwri_flushes, 0u);
  EXPECT_EQ(Stored(ram_, 0), Pattern(0));
}

TEST_F(BufTest, DelwriVictimWriteErrorIsCounted) {
  // Every write to the SCSI disk fails at the media; a victim flush forced
  // by reuse must surface in delwri_write_errors instead of vanishing.
  // (The redirty path may retry and fail again, so >= 1.)
  scsi_.disk().SetFaultHook([](int64_t, bool is_read) { return !is_read; });
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &scsi_, 3);
    MakeWritable(b->data) = Pattern(3);
    cache_.Bdwrite(p, b);
    for (int64_t i = 100; i < 120; ++i) {
      Buf* f = co_await cache_.Bread(p, &ram_, i);
      cache_.Brelse(f);
    }
  });
  EXPECT_GT(cache_.stats().delwri_flushes, 0u);
  EXPECT_GE(cache_.stats().delwri_write_errors, 1u);
}

TEST_F(BufTest, DelwriVictimWriteFailureRedirtiesAndRetries) {
  // Regression: a victim write that fails transiently used to re-enter the
  // freelist CLEAN — the dirty data silently vanished on frame reuse.  The
  // buffer must be redirtied and written successfully on a later pass.
  int fail_budget = 1;
  scsi_.disk().SetFaultHook(
      [&](int64_t, bool is_read) { return !is_read && fail_budget-- > 0; });
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &scsi_, 3);
    MakeWritable(b->data) = Pattern(3);
    cache_.Bdwrite(p, b);
    // Cycle the LRU with paced reads (the SCSI write takes ~20 ms of
    // simulated time) until the redirtied buffer is re-victimized and the
    // retried write lands.  Deterministic; the bound is just a backstop.
    for (int64_t i = 100; i < 400 && Stored(scsi_, 3) != Pattern(3); ++i) {
      Buf* f = co_await cache_.Bread(p, &ram_, i);
      cache_.Brelse(f);
      co_await cpu_.Use(p, Milliseconds(2));
    }
  });
  EXPECT_EQ(cache_.stats().delwri_write_errors, 1u);
  EXPECT_EQ(cache_.stats().delwri_data_lost, 0u);
  EXPECT_EQ(Stored(scsi_, 3), Pattern(3));  // the data survived the fault
}

TEST_F(BufTest, DelwriRepeatedWriteFailureBoundsRetriesAndCountsLoss) {
  // A write that can never succeed must not livelock the allocator: after
  // kDelwriRetryLimit failed victim flushes the cache gives up, counts the
  // loss, and reclaims the frame.
  scsi_.disk().SetFaultHook([](int64_t, bool is_read) { return !is_read; });
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &scsi_, 3);
    MakeWritable(b->data) = Pattern(3);
    cache_.Bdwrite(p, b);
    // Paced LRU churn re-victimizes the redirtied buffer until the retry
    // budget is exhausted and the loss is recorded (bound is a backstop).
    for (int64_t i = 100; i < 500 && cache_.stats().delwri_data_lost == 0; ++i) {
      Buf* f = co_await cache_.Bread(p, &ram_, i);
      cache_.Brelse(f);
      co_await cpu_.Use(p, Milliseconds(2));
    }
  });
  EXPECT_EQ(cache_.stats().delwri_write_errors,
            static_cast<uint64_t>(BufferCache::kDelwriRetryLimit));
  EXPECT_EQ(cache_.stats().delwri_data_lost, 1u);
}

TEST_F(BufTest, FsyncWriteErrorKeepsDataForRetry) {
  // FlushDev with a failing device returns with the block still dirty
  // (fsync-reports-EIO semantics); once the fault clears, a second flush
  // lands the data.
  bool fail_writes = true;
  scsi_.disk().SetFaultHook(
      [&](int64_t, bool is_read) { return !is_read && fail_writes; });
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &scsi_, 5);
    MakeWritable(b->data) = Pattern(5);
    cache_.Bdwrite(p, b);
    co_await cache_.FlushDev(p, &scsi_);  // fails at the media
    EXPECT_GT(cache_.stats().delwri_write_errors, 0u);
    fail_writes = false;
    co_await cache_.FlushDev(p, &scsi_);
  });
  EXPECT_EQ(Stored(scsi_, 5), Pattern(5));
  EXPECT_EQ(cache_.stats().delwri_data_lost, 0u);
}

TEST_F(BufTest, InvalidateDevPutsBuffersAtFreelistFront) {
  ram_.PokeBlock(1, Pattern(1));
  RunProc([&](Process& p) -> Task<> {
    Buf* a = co_await cache_.Bread(p, &ram_, 1);
    cache_.Brelse(a);
    // Age other frames behind it (different device, so the invalidation
    // below touches only `a`).
    for (int64_t i = 50; i < 55; ++i) {
      Buf* b = co_await cache_.GetBlk(p, &scsi_, i);
      cache_.Brelse(b);
    }
    cache_.InvalidateDev(&ram_);
    // Worthless buffers go to the freelist FRONT: the very next miss must
    // recycle the invalidated frame ahead of every never-used frame.
    Buf* b = co_await cache_.GetBlk(p, &ram_, 99);
    EXPECT_EQ(b, a);
    cache_.Brelse(b);
  });
}

TEST_F(BufTest, BreadaIssuesReadAhead) {
  scsi_.PokeBlock(0, Pattern(0));
  scsi_.PokeBlock(1, Pattern(1));
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Breada(p, &scsi_, 0, 1);
    cache_.Brelse(b);
    // Wait for the async read-ahead to land, then block 1 must be a hit.
    co_await cpu_.Use(p, Milliseconds(100));
    const uint64_t misses = cache_.stats().misses;
    Buf* ra = co_await cache_.Bread(p, &scsi_, 1);
    EXPECT_EQ(cache_.stats().misses, misses);
    EXPECT_EQ(*ra->data, Pattern(1));
    cache_.Brelse(ra);
  });
  EXPECT_EQ(scsi_.stats().requests, 2u);
}

TEST_F(BufTest, InvalidateDevForcesColdRead) {
  ram_.PokeBlock(2, Pattern(2));
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &ram_, 2);
    cache_.Brelse(b);
    cache_.InvalidateDev(&ram_);
    Buf* again = co_await cache_.Bread(p, &ram_, 2);
    EXPECT_EQ(*again->data, Pattern(2));
    cache_.Brelse(again);
  });
  EXPECT_EQ(ram_.stats().reads, 2u);
  EXPECT_EQ(cache_.stats().misses, 2u);
}

// --- frames on first use ---

TEST_F(BufTest, FreshCacheHasNoFrames) {
  EXPECT_EQ(cache_.nbufs(), 16);
  EXPECT_EQ(cache_.frames(), 0);
}

TEST_F(BufTest, FirstBreadAllocatesOneFrameAndRereadNone) {
  ram_.PokeBlock(4, Pattern(4));
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &ram_, 4);
    EXPECT_EQ(cache_.frames(), 1);
    EXPECT_EQ(*b->data, Pattern(4));
    cache_.Brelse(b);
    Buf* again = co_await cache_.Bread(p, &ram_, 4);
    EXPECT_EQ(again, b);
    cache_.Brelse(again);
  });
  EXPECT_EQ(cache_.frames(), 1);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

TEST_F(BufTest, InvalidateDevKeepsFrames) {
  RunProc([&](Process& p) -> Task<> {
    for (int64_t i = 0; i < 3; ++i) {
      cache_.Brelse(co_await cache_.Bread(p, &ram_, i));
    }
    EXPECT_EQ(cache_.frames(), 3);
    cache_.InvalidateDev(&ram_);
    EXPECT_EQ(cache_.frames(), 3);
    // The invalidated buffers head the free list, so a cold re-read reuses
    // one of their frames instead of allocating a fourth.
    cache_.Brelse(co_await cache_.Bread(p, &ram_, 0));
  });
  EXPECT_EQ(cache_.frames(), 3);
  EXPECT_EQ(ram_.stats().reads, 4u);
}

// --- splice (non-blocking) API ---

TEST_F(BufTest, BreadAsyncDeliversViaIodone) {
  scsi_.PokeBlock(8, Pattern(8));
  Buf* got = nullptr;
  SimTime when = -1;
  ASSERT_TRUE(cache_.BreadAsync(&scsi_, 8, [&](Buf& b) {
    got = &b;
    when = sim_.Now();
  }));
  EXPECT_EQ(got, nullptr);  // not synchronous for a cold block
  sim_.Run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got->data, Pattern(8));
  EXPECT_GT(when, 0);
  EXPECT_TRUE(got->Has(kBufDone));
  cache_.Brelse(got);
}

TEST_F(BufTest, BreadAsyncCacheHitIsSynchronous) {
  ram_.PokeBlock(4, Pattern(4));
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.Bread(p, &ram_, 4);
    cache_.Brelse(b);
  });
  Buf* got = nullptr;
  ASSERT_TRUE(cache_.BreadAsync(&ram_, 4, [&](Buf& b) { got = &b; }));
  ASSERT_NE(got, nullptr);  // delivered before returning
  EXPECT_EQ(*got->data, Pattern(4));
  cache_.Brelse(got);
}

TEST_F(BufTest, TransientHeaderSharesDataArea) {
  scsi_.PokeBlock(6, Pattern(6));
  bool wrote = false;
  ASSERT_TRUE(cache_.BreadAsync(&scsi_, 6, [&](Buf& src) {
    // Write side: header with no data of its own, aliasing the read buffer.
    Buf* w = cache_.AllocTransientHeader(&ram_, 20);
    EXPECT_EQ(w->data, nullptr);
    w->data = src.data;
    w->bcount = src.bcount;
    w->splice_peer = &src;
    cache_.BawriteAsync(w, [&](Buf& done_buf) {
      cache_.Brelse(done_buf.splice_peer);
      cache_.FreeTransientHeader(&done_buf);
      wrote = true;
    });
  }));
  sim_.Run();
  EXPECT_TRUE(wrote);
  // Zero-copy path: the bytes landed on the RAM disk without an intermediate
  // cache-to-cache copy.
  EXPECT_EQ(Stored(ram_, 20), Pattern(6));
}

TEST_F(BufTest, BreadAsyncFailsWhenNoBufferAvailable) {
  std::vector<Buf*> held;
  cpu_.Spawn("holder", [&](Process& p) -> Task<> {
    for (int64_t i = 0; i < 16; ++i) {
      held.push_back(co_await cache_.GetBlk(p, &ram_, i));
    }
  });
  sim_.Run();
  EXPECT_FALSE(cache_.BreadAsync(&scsi_, 1, [](Buf&) { FAIL(); }));
  EXPECT_EQ(cache_.stats().async_read_fails, 1u);
  for (Buf* b : held) {
    cache_.Brelse(b);
  }
}

TEST_F(BufTest, VictimReuseWithAliasedDataGetsFreshFrame) {
  // A buffer whose data area is still shared by a transient header must not
  // be scribbled on when the frame is recycled.
  ram_.PokeBlock(0, Pattern(0));
  Buf* src = nullptr;
  ASSERT_TRUE(cache_.BreadAsync(&ram_, 0, [&](Buf& b) { src = &b; }));
  ASSERT_NE(src, nullptr);
  Buf* w = cache_.AllocTransientHeader(&ram_, 30);
  w->data = src->data;  // alias held across the release below
  cache_.Brelse(src);
  RunProc([&](Process& p) -> Task<> {
    // Force reuse of every frame.
    for (int64_t i = 100; i < 116; ++i) {
      Buf* b = co_await cache_.GetBlk(p, &ram_, i);
      MakeWritable(b->data) = Pattern(i);
      cache_.Brelse(b);
    }
  });
  // The aliased frame still holds block 0's bytes.
  EXPECT_EQ(*w->data, Pattern(0));
  cache_.FreeTransientHeader(w);
}

TEST_F(BufTest, PendingWritesTracksAsyncWrites) {
  RunProc([&](Process& p) -> Task<> {
    Buf* b = co_await cache_.GetBlk(p, &scsi_, 50);
    MakeWritable(b->data) = Pattern(50);
    co_await cache_.Bawrite(p, b);
    EXPECT_EQ(cache_.PendingWrites(&scsi_), 1);
    co_await cache_.FlushDev(p, &scsi_);
    EXPECT_EQ(cache_.PendingWrites(&scsi_), 0);
  });
  EXPECT_EQ(Stored(scsi_, 50), Pattern(50));
}

TEST_F(BufTest, RamDiskWriteChargesCopyToCaller) {
  Process* proc = nullptr;
  cpu_.Spawn("copier", [&](Process& p) -> Task<> {
    proc = &p;
    Buf* b = co_await cache_.GetBlk(p, &ram_, 0);
    MakeWritable(b->data) = Pattern(0);
    co_await cache_.Bwrite(p, b);
  });
  sim_.Run();
  // The process paid for the 8 KB write bcopy (~410 us) plus bookkeeping.
  EXPECT_GT(proc->stats().cpu_time, Microseconds(400));
}

TEST_F(BufTest, RamDiskReadIsZeroCopy) {
  ram_.PokeBlock(0, Pattern(0));
  Process* proc = nullptr;
  cpu_.Spawn("reader", [&](Process& p) -> Task<> {
    proc = &p;
    Buf* b = co_await cache_.Bread(p, &ram_, 0);
    EXPECT_EQ(*b->data, Pattern(0));
    cache_.Brelse(b);
  });
  sim_.Run();
  // The RAM disk maps read buffers onto its core: bookkeeping only.
  EXPECT_LT(proc->stats().cpu_time, Microseconds(200));
}

TEST_F(BufTest, ScsiReadDoesNotChargeCopyToCaller) {
  scsi_.PokeBlock(0, Pattern(0));
  Process* proc = nullptr;
  cpu_.Spawn("reader", [&](Process& p) -> Task<> {
    proc = &p;
    Buf* b = co_await cache_.Bread(p, &scsi_, 0);
    cache_.Brelse(b);
  });
  sim_.Run();
  // DMA: only bookkeeping costs, far below a bcopy.
  EXPECT_LT(proc->stats().cpu_time, Microseconds(200));
}

}  // namespace
}  // namespace ikdp
